package sim

import (
	"fmt"
	"math/bits"
)

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

// full reports whether bits 0..n-1 are all set.
func (b bitset) full(n int) bool {
	for i := 0; i < n>>6; i++ {
		if b[i] != ^uint64(0) {
			return false
		}
	}
	if rem := n & 63; rem != 0 {
		if b[n>>6] != (1<<uint(rem))-1 {
			return false
		}
	}
	return true
}

// firstMissing returns the lowest bit set in a but not in b, or -1.
func firstMissing(a, b bitset, n int) int {
	for w := range a {
		if diff := a[w] &^ b[w]; diff != 0 {
			i := w<<6 + bits.TrailingZeros64(diff)
			if i < n {
				return i
			}
			return -1
		}
	}
	return -1
}

// firstMissingFrom is firstMissing scanning circularly from bit start,
// so different nodes and rounds pick different packets and traffic
// spreads uniformly over the links.
func firstMissingFrom(a, b bitset, n, start int) int {
	w0 := start >> 6
	// Partial first word: bits ≥ start.
	if diff := (a[w0] &^ b[w0]) >> uint(start&63); diff != 0 {
		if i := start + bits.TrailingZeros64(diff); i < n {
			return i
		}
	}
	for off := 1; off <= len(a); off++ {
		w := (w0 + off) % len(a)
		if diff := a[w] &^ b[w]; diff != 0 {
			if i := w<<6 + bits.TrailingZeros64(diff); i < n && (w != w0 || i < start) {
				return i
			}
			// The only set bits in this word may be ≥ n or ≥ start in
			// the wrapped first word; fall back to a full scan.
			return firstMissing(a, b, n)
		}
	}
	return -1
}

// MNBResult reports a simulated multinode broadcast.
type MNBResult struct {
	Rounds    int
	Sends     int64
	LinkStats LinkStats
}

// MNBPolicy selects which missing packet gossip forwards on a link.
type MNBPolicy int

const (
	// RotatingScan starts the packet scan at a node- and round-
	// dependent offset, spreading traffic uniformly over the links
	// (the default; matches the paper's uniform-traffic claim).
	RotatingScan MNBPolicy = iota
	// LowestFirst always forwards the lowest-numbered missing packet;
	// simpler, but concentrates early traffic on a few links (kept as
	// the ablation baseline, experiment A3).
	LowestFirst
)

// MNB simulates the multinode broadcast: every node starts with one
// packet (its own ID) and the task completes when every node holds all
// N packets.  The algorithm is neighborhood gossip: on each usable
// link a node forwards a packet it holds that the neighbor is not yet
// known to hold (known = sent there before, or received from there).
// Gossip is within a small constant of the (N−1)/d all-port lower
// bound on vertex-symmetric networks and within a small constant of
// N−1 under SDC, which is all the Θ-comparisons of Corollary 2 need.
func MNB(nt *Net, model Model) (MNBResult, error) {
	return MNBWithPolicy(nt, model, RotatingScan)
}

// MNBWithPolicy is MNB with an explicit packet-selection policy.
func MNBWithPolicy(nt *Net, model Model, policy MNBPolicy) (MNBResult, error) {
	n, d := nt.N(), nt.Ports()
	if mem := int64(n) * int64(n) * int64(d+1) / 8; mem > 400<<20 {
		return MNBResult{}, fmt.Errorf("sim: MNB on %s needs %d MB of knowledge state", nt.Name(), mem>>20)
	}
	know := make([]bitset, n)
	for v := range know {
		know[v] = newBitset(n)
		know[v].set(v)
	}
	peer := make([][]bitset, d)
	for p := range peer {
		peer[p] = make([]bitset, n)
		for v := range peer[p] {
			peer[p][v] = newBitset(n)
		}
	}
	// Reverse ports: the port that carries traffic back along link p
	// (index of the inverse generator), or -1 for directed links.
	rev := make([]int, d)
	for p := 0; p < d; p++ {
		rev[p] = nt.set.IndexOfAction(nt.set.At(p).Inverse())
	}
	// Canonical ports: parallel generators (equal action, e.g. I₂ and
	// I₂⁻¹ in IS networks) reach the same neighbor, so they share one
	// knowledge channel.
	canon := make([]int, d)
	for p := 0; p < d; p++ {
		canon[p] = nt.set.IndexOfAction(nt.set.At(p))
	}

	linkUses := make([]int, n*d)
	res := MNBResult{}
	type send struct {
		v, p, pkt int
	}
	sends := make([]send, 0, n*d)
	done := func() bool {
		for v := 0; v < n; v++ {
			if !know[v].full(n) {
				return false
			}
		}
		return true
	}

	maxRounds := 4 * n * d // generous safety net; gossip finishes far sooner
	for round := 0; ; round++ {
		if done() {
			res.Rounds = round
			break
		}
		if round > maxRounds {
			return res, fmt.Errorf("sim: MNB on %s did not finish within %d rounds", nt.Name(), maxRounds)
		}
		sends = sends[:0]
		// pick selects a packet for link (v,p) and immediately marks
		// the sender-side knowledge, so parallel ports to the same
		// neighbor never duplicate a packet within a round.
		pick := func(v, p, round int) {
			start := 0
			if policy == RotatingScan {
				start = (v*31 + round*17) % n
			}
			if pkt := firstMissingFrom(know[v], peer[canon[p]][v], n, start); pkt >= 0 {
				peer[canon[p]][v].set(pkt)
				sends = append(sends, send{v, p, pkt})
			}
		}
		switch model {
		case AllPort:
			for v := 0; v < n; v++ {
				for p := 0; p < d; p++ {
					pick(v, p, round)
				}
			}
		case SinglePort:
			for v := 0; v < n; v++ {
				// Rotate port priority so traffic spreads evenly.
				before := len(sends)
				for off := 0; off < d && len(sends) == before; off++ {
					pick(v, (v+round+off)%d, round)
				}
			}
		case SDC:
			p := round % d
			for v := 0; v < n; v++ {
				pick(v, p, round)
			}
		default:
			return res, fmt.Errorf("sim: unknown model %v", model)
		}
		for _, s := range sends {
			w := nt.Neighbor(s.v, s.p)
			know[w].set(s.pkt)
			if rev[s.p] >= 0 {
				// The receiver now knows the sender holds this packet.
				peer[canon[rev[s.p]]][w].set(s.pkt)
			}
			linkUses[s.v*d+s.p]++
			res.Sends++
		}
	}
	res.LinkStats = statsOf(linkUses)
	return res, nil
}

// MNBLowerBound returns the receive-capacity lower bound on MNB
// rounds: each node must receive N−1 packets at d per round (all-port)
// or 1 per round (SDC and single-port).
func MNBLowerBound(n, d int, model Model) int {
	if model == AllPort {
		return (n - 2 + d) / d
	}
	return n - 1
}
