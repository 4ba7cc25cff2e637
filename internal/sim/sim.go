// Package sim provides the synchronous store-and-forward network
// simulator on which the paper's communication tasks (multinode
// broadcast and total exchange) are executed and timed.
//
// The simulator replaces the 1999-era multiprocessor testbed: nodes
// are the k! permutations of a Cayley network, links are the labeled
// generator ports, and time advances in synchronous rounds.  One round
// = one packet transmission per available link, matching the paper's
// communication models:
//
//   - all-port: every node may use all its outgoing links per round;
//   - single-port: every node may use at most one outgoing link;
//   - single-dimension (SDC): all nodes must use the same generator.
package sim

import (
	"errors"
	"fmt"

	"supercayley/internal/gens"
	"supercayley/internal/graph"
	"supercayley/internal/perm"
)

// Net is an enumerated Cayley network with port-labeled neighbor
// tables (port p = generator index p of the defining set).
type Net struct {
	name string
	k    int
	n    int
	set  *gens.Set
	// nbr[p][v] is the node reached from v through port p.
	nbr [][]int32
}

// MaxSimNodes bounds the networks we are willing to enumerate for
// simulation: 8! = 40320 fits, 9! = 362880 does not.
const MaxSimNodes = 45000

// ErrTooLarge is the sentinel matched by errors.Is when a network is
// too large to enumerate for simulation.
var ErrTooLarge = errors.New("sim: network exceeds MaxSimNodes")

// TooLargeError reports the network that exceeded MaxSimNodes; it
// matches ErrTooLarge under errors.Is and carries the exact sizes.
type TooLargeError struct {
	Name  string
	Nodes int64
	Limit int
}

// Error renders the failure with its sizes.
func (e *TooLargeError) Error() string {
	return fmt.Sprintf("sim: %s has %d nodes, above limit %d", e.Name, e.Nodes, e.Limit)
}

// Is matches ErrTooLarge.
func (e *TooLargeError) Is(target error) bool { return target == ErrTooLarge }

// FromSet enumerates the Cayley network of a generator set.  Networks
// beyond MaxSimNodes return a *TooLargeError (errors.Is(err,
// ErrTooLarge)) before any enumeration work happens.
func FromSet(name string, set *gens.Set) (*Net, error) {
	k := set.K()
	total := perm.Factorial(k)
	if total > MaxSimNodes {
		return nil, &TooLargeError{Name: name, Nodes: total, Limit: MaxSimNodes}
	}
	n := int(total)
	d := set.Len()
	nt := &Net{name: name, k: k, n: n, set: set, nbr: make([][]int32, d)}
	for p := 0; p < d; p++ {
		nt.nbr[p] = make([]int32, n)
	}
	buf := make(perm.Perm, k)
	var rank int64
	perm.All(k, func(pm perm.Perm) bool {
		for p := 0; p < d; p++ {
			set.At(p).ApplyInto(buf, pm)
			nt.nbr[p][rank] = int32(buf.Rank())
		}
		rank++
		return true
	})
	return nt, nil
}

// Name returns the network's display name.
func (nt *Net) Name() string { return nt.name }

// N returns the number of nodes.
func (nt *Net) N() int { return nt.n }

// Ports returns the out-degree.
func (nt *Net) Ports() int { return len(nt.nbr) }

// Set returns the defining generator set.
func (nt *Net) Set() *gens.Set { return nt.set }

// Neighbor returns the node reached from v through port p.
func (nt *Net) Neighbor(v, p int) int { return int(nt.nbr[p][v]) }

// PortOf returns the port index of a generator (by name, then by
// action), or -1.
func (nt *Net) PortOf(g gens.Generator) int { return nt.set.Index(g) }

// CSR materializes the network as a compressed-sparse-row graph with
// arcs in port order, so that arc index i of node v is exactly port i
// — the mapping the fault-reachability queries rely on.
func (nt *Net) CSR() *graph.CSR {
	n, d := nt.n, len(nt.nbr)
	offsets := make([]int64, n+1)
	edges := make([]int32, int64(n)*int64(d))
	for v := 0; v <= n; v++ {
		offsets[v] = int64(v) * int64(d)
	}
	for p := 0; p < d; p++ {
		for v := 0; v < n; v++ {
			edges[int64(v)*int64(d)+int64(p)] = nt.nbr[p][v]
		}
	}
	return graph.NewCSR(nt.name, offsets, edges)
}

// Model selects the communication model.
type Model int

const (
	// AllPort: all links usable every round.
	AllPort Model = iota
	// SinglePort: one outgoing link per node per round.
	SinglePort
	// SDC: all nodes restricted to one common generator per round,
	// cycling round-robin through the ports.
	SDC
)

// String names the communication model.
func (m Model) String() string {
	switch m {
	case AllPort:
		return "all-port"
	case SinglePort:
		return "single-port"
	case SDC:
		return "single-dimension"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// LinkStats summarizes per-link traffic, supporting the paper's claim
// that traffic is uniform within a constant factor across links.
// Idle counts links an algorithm never uses (e.g. emulation routing on
// IS networks never traverses the I_k⁻¹ link); Min/Max/Ratio describe
// the links that do carry traffic.
type LinkStats struct {
	Min, Max int // over links with nonzero traffic
	Mean     float64
	Idle     int
}

// Ratio returns Max/Min over the links that carry traffic.
func (ls LinkStats) Ratio() float64 {
	if ls.Min == 0 {
		return 1
	}
	return float64(ls.Max) / float64(ls.Min)
}

func statsOf(uses []int) LinkStats {
	if len(uses) == 0 {
		return LinkStats{}
	}
	ls := LinkStats{}
	sum := 0
	for _, u := range uses {
		if u == 0 {
			ls.Idle++
			continue
		}
		if ls.Min == 0 || u < ls.Min {
			ls.Min = u
		}
		if u > ls.Max {
			ls.Max = u
		}
		sum += u
	}
	ls.Mean = float64(sum) / float64(len(uses))
	return ls
}
