// Fault injection: deterministic, seedable node-kill and link-kill
// plans that the simulators consult every round.
//
// The networks of the paper are vertex- and edge-symmetric Cayley
// graphs on S_k, the class the fault-tolerance literature (Ganesan)
// shows remains connected and routable under maximal fault sets.  A
// FaultPlan turns that theory into an executable model: each fault is
// a (victim, onset round) pair, so a plan can strike before the
// simulation starts (onset 0) or mid-run, and the same seed always
// reproduces the same plan.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"supercayley/internal/graph"
)

// FaultMode selects how a plan picks its victims.
type FaultMode int

const (
	// FaultRandom kills a uniformly random fraction of nodes/links
	// (independent failures).
	FaultRandom FaultMode = iota
	// FaultTargeted is the adversarial model: victims are taken in
	// BFS order around a seed-chosen target node, so the target's
	// whole neighborhood dies first — the minimum cut of a connected
	// vertex-symmetric graph is its degree, and this mode realizes
	// that worst case as soon as the budget covers the degree.
	FaultTargeted
	// FaultRegion kills a contiguous band of the Lehmer rank space —
	// correlated regional failure: consecutive ranks share leading
	// symbols, i.e. whole boxes of the ball-arrangement game go down
	// together.
	FaultRegion
)

// String names the fault mode.
func (m FaultMode) String() string {
	switch m {
	case FaultRandom:
		return "random"
	case FaultTargeted:
		return "targeted"
	case FaultRegion:
		return "region"
	}
	return fmt.Sprintf("FaultMode(%d)", int(m))
}

// ParseFaultMode reads a fault mode name.
func ParseFaultMode(s string) (FaultMode, error) {
	switch s {
	case "random":
		return FaultRandom, nil
	case "targeted":
		return FaultTargeted, nil
	case "region":
		return FaultRegion, nil
	}
	return 0, fmt.Errorf("sim: unknown fault mode %q", s)
}

// FaultSpec parameterizes a fault plan.  The zero value is the empty
// plan (no faults).
type FaultSpec struct {
	Mode FaultMode
	// Seed drives every random choice; the same (net, spec) always
	// yields the same plan.
	Seed int64
	// NodeFrac and LinkFrac are the fractions of nodes and directed
	// links to kill, in [0, 1).  NodeFrac must leave at least one
	// survivor.
	NodeFrac, LinkFrac float64
	// Onset is the round at which the faults strike; 0 means the
	// faults exist before the first round.
	Onset int
}

// neverFails marks a node or link that stays alive forever.
const neverFails = math.MaxInt32

// FaultPlan is an immutable schedule of node and link deaths for one
// network: entity x is alive at round r iff r < onset(x).  A nil
// *FaultPlan is the pristine network everywhere it is accepted.
type FaultPlan struct {
	d      int
	nodeAt []int32 // round at which node v dies, or neverFails
	linkAt []int32 // round at which link v·d+p dies, or neverFails
	spec   FaultSpec
	nodes  int // scheduled node faults
	links  int // scheduled link faults
}

// NewFaultPlan builds the deterministic fault plan for nt described
// by spec.
func NewFaultPlan(nt *Net, spec FaultSpec) (*FaultPlan, error) {
	n, d := nt.N(), nt.Ports()
	if spec.NodeFrac < 0 || spec.NodeFrac >= 1 {
		return nil, fmt.Errorf("sim: node fault fraction %v outside [0,1)", spec.NodeFrac)
	}
	if spec.LinkFrac < 0 || spec.LinkFrac >= 1 {
		return nil, fmt.Errorf("sim: link fault fraction %v outside [0,1)", spec.LinkFrac)
	}
	if spec.Onset < 0 {
		return nil, fmt.Errorf("sim: fault onset %d negative", spec.Onset)
	}
	fp := &FaultPlan{d: d, nodeAt: make([]int32, n), linkAt: make([]int32, n*d), spec: spec}
	for i := range fp.nodeAt {
		fp.nodeAt[i] = neverFails
	}
	for i := range fp.linkAt {
		fp.linkAt[i] = neverFails
	}
	killNodes := int(spec.NodeFrac * float64(n))
	killLinks := int(spec.LinkFrac * float64(n) * float64(d))
	if killNodes >= n {
		return nil, fmt.Errorf("sim: node fault fraction %v leaves no survivors", spec.NodeFrac)
	}
	if killNodes == 0 && killLinks == 0 {
		return fp, nil
	}
	r := rand.New(rand.NewSource(spec.Seed))
	onset := int32(spec.Onset)
	switch spec.Mode {
	case FaultRandom:
		for _, v := range r.Perm(n)[:killNodes] {
			fp.nodeAt[v] = onset
		}
		for _, e := range r.Perm(n * d)[:killLinks] {
			fp.linkAt[e] = onset
		}
	case FaultTargeted:
		order := bfsOrder(nt, r.Intn(n))
		// Nodes: the target's neighborhood dies first (skip the
		// target itself so it is maximally isolated, not removed).
		for _, v := range order[1 : killNodes+1] {
			fp.nodeAt[v] = onset
		}
		// Links: out-links of the target, then of its BFS ball.
		taken := 0
		for _, v := range order {
			for p := 0; p < d && taken < killLinks; p++ {
				fp.linkAt[v*d+p] = onset
				taken++
			}
			if taken >= killLinks {
				break
			}
		}
	case FaultRegion:
		start := r.Intn(n)
		for i := 0; i < killNodes; i++ {
			fp.nodeAt[(start+i)%n] = onset
		}
		lstart := r.Intn(n * d)
		for i := 0; i < killLinks; i++ {
			fp.linkAt[(lstart+i)%(n*d)] = onset
		}
	default:
		return nil, fmt.Errorf("sim: unknown fault mode %v", spec.Mode)
	}
	for _, at := range fp.nodeAt {
		if at != neverFails {
			fp.nodes++
		}
	}
	for _, at := range fp.linkAt {
		if at != neverFails {
			fp.links++
		}
	}
	return fp, nil
}

// bfsOrder returns every node in deterministic BFS order (ports
// ascending) from src; unreachable nodes follow in rank order.
func bfsOrder(nt *Net, src int) []int {
	n, d := nt.N(), nt.Ports()
	order := make([]int, 0, n)
	seen := make([]bool, n)
	order = append(order, src)
	seen[src] = true
	for at := 0; at < len(order); at++ {
		v := order[at]
		for p := 0; p < d; p++ {
			if w := nt.Neighbor(v, p); !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order
}

// Empty reports whether the plan schedules no faults at all.
func (fp *FaultPlan) Empty() bool { return fp == nil || (fp.nodes == 0 && fp.links == 0) }

// NodeFaults returns the number of scheduled node deaths.
func (fp *FaultPlan) NodeFaults() int {
	if fp == nil {
		return 0
	}
	return fp.nodes
}

// LinkFaults returns the number of scheduled link deaths.
func (fp *FaultPlan) LinkFaults() int {
	if fp == nil {
		return 0
	}
	return fp.links
}

// NodeAlive reports whether node v is alive at the given round.
func (fp *FaultPlan) NodeAlive(v, round int) bool {
	return fp == nil || int32(round) < fp.nodeAt[v]
}

// LinkAlive reports whether the directed link (v, p) itself is alive
// at the given round (endpoint aliveness is separate; see
// Net.Usable).
func (fp *FaultPlan) LinkAlive(v, p, round int) bool {
	return fp == nil || int32(round) < fp.linkAt[v*fp.d+p]
}

// NodeDead reports whether node v is scheduled to die at any point.
func (fp *FaultPlan) NodeDead(v int) bool {
	return fp != nil && fp.nodeAt[v] != neverFails
}

// finalDeadNodes returns the node mask after every onset has passed,
// or nil when no node faults are scheduled.
func (fp *FaultPlan) finalDeadNodes() []bool {
	if fp == nil || fp.nodes == 0 {
		return nil
	}
	dead := make([]bool, len(fp.nodeAt))
	for v, at := range fp.nodeAt {
		dead[v] = at != neverFails
	}
	return dead
}

// finalArcDown returns the arc-deletion predicate after every onset
// has passed (arc index == port index), or nil when no link faults
// are scheduled.
func (fp *FaultPlan) finalArcDown() graph.ArcDownFunc {
	if fp == nil || fp.links == 0 {
		return nil
	}
	return func(v, i int) bool { return fp.linkAt[v*fp.d+i] != neverFails }
}

// Summary renders the plan on one line.
func (fp *FaultPlan) Summary() string {
	if fp.Empty() {
		return "no faults"
	}
	return fmt.Sprintf("%d node faults, %d link faults (%v, seed %d, onset round %d)",
		fp.nodes, fp.links, fp.spec.Mode, fp.spec.Seed, fp.spec.Onset)
}

// Usable reports whether the link (v, p) can carry a packet at the
// given round: the link and both endpoints must be alive.
func (nt *Net) Usable(fp *FaultPlan, v, p, round int) bool {
	if fp == nil {
		return true
	}
	return fp.NodeAlive(v, round) && fp.LinkAlive(v, p, round) && fp.NodeAlive(nt.Neighbor(v, p), round)
}
