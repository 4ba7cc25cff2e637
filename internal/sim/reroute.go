// Adaptive rerouting under faults: packets follow the fault-free
// greedy emulation route while it is usable and detour through
// alternate generators when a step is blocked, with a bounded detour
// budget.  When the budget runs out — or the fault set has
// disconnected the pair outright — the packet degrades gracefully:
// the sweep reports partial delivery plus a survivor-reachability
// report instead of failing.
package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"supercayley/internal/graph"
)

// Router supplies the routing knowledge the reroute walker needs.
type Router struct {
	// Route returns the fault-free greedy port path from src to dst
	// (the paper's star-emulation route for super Cayley networks).
	Route RouteFunc
	// Alternates returns every candidate next-hop port from cur
	// toward dst in preference order (most promising first, greedy
	// step included).  It is consulted only when the greedy step is
	// blocked.
	Alternates func(cur, dst int) ([]int, error)
}

// ReroutePolicy bounds the adaptive walker.
type ReroutePolicy struct {
	// MaxDetours is the per-packet budget of non-greedy steps; 0
	// means 2·ports+4.
	MaxDetours int
	// HopLimit is the per-packet hop cap; 0 means 16 + 4× the
	// fault-free route length.
	HopLimit int
}

func (p ReroutePolicy) maxDetours(d int) int {
	if p.MaxDetours > 0 {
		return p.MaxDetours
	}
	return 2*d + 4
}

func (p ReroutePolicy) hopLimit(optimal int) int {
	if p.HopLimit > 0 {
		return p.HopLimit
	}
	return 16 + 4*optimal
}

// PairOutcome classifies one (src, dst) routing attempt.
type PairOutcome uint8

const (
	// PairDelivered: the packet reached dst.
	PairDelivered PairOutcome = iota
	// PairSourceDead: src was dead before the packet left.
	PairSourceDead
	// PairDestDead: dst is dead; nothing can be delivered.
	PairDestDead
	// PairUnreachable: both endpoints live but the fault set
	// disconnects dst from src — graceful degradation, not a router
	// failure.
	PairUnreachable
	// PairAborted: dst was reachable but the walker exhausted its
	// detour or hop budget (or the packet's node died mid-route).
	PairAborted
)

// SurvivorReport summarizes the survivor subgraph of a fault plan.
type SurvivorReport struct {
	Alive, DeadNodes, DeadLinks int
	// LargestReach is the largest reachable set of any survivor.
	LargestReach int
	// ReachableFraction is the fraction of ordered survivor pairs
	// that remain connected.
	ReachableFraction float64
	// Connected reports whether every survivor still reaches every
	// other survivor.
	Connected bool
}

// String renders the report on one line.
func (r SurvivorReport) String() string {
	return fmt.Sprintf("survivors=%d (nodes-down=%d links-down=%d) reach=%.4f largest=%d connected=%v",
		r.Alive, r.DeadNodes, r.DeadLinks, r.ReachableFraction, r.LargestReach, r.Connected)
}

// SweepResult aggregates a fault-injection routing sweep.
type SweepResult struct {
	Pairs                                                 int
	Delivered, SourceDead, DestDead, Unreachable, Aborted int
	// DeliveredFraction is Delivered / Pairs.
	DeliveredFraction float64
	// MeanStretch and MaxStretch compare delivered hop counts with
	// the fault-free greedy route length of the same pair.  Stretch
	// can dip below 1: the walker stops as soon as it stands on the
	// destination, and an emulation route may pass through it
	// mid-expansion.
	MeanStretch, MaxStretch float64
	// Detours counts non-greedy steps across all delivered packets.
	Detours int64
	// MeanAbortHops is the mean number of rounds an aborted packet
	// burned before giving up (rounds-to-abort).
	MeanAbortHops float64
	// Survivors is the reachability report of the survivor subgraph.
	Survivors SurvivorReport
}

// String renders the headline metrics on one line.
func (r SweepResult) String() string {
	return fmt.Sprintf("pairs=%d delivered=%.4f stretch=%.3f (max %.2f) detours=%d unreachable=%d dest-dead=%d src-dead=%d aborted=%d",
		r.Pairs, r.DeliveredFraction, r.MeanStretch, r.MaxStretch, r.Detours,
		r.Unreachable, r.DestDead, r.SourceDead, r.Aborted)
}

// pairResult is the raw per-pair record the parallel walkers emit.
type pairResult struct {
	outcome PairOutcome
	hops    int
	detours int
	optimal int
}

// routeOne walks a single packet from src to dst under the fault
// plan: it consumes the precomputed greedy route while usable,
// recomputes after each detour, and gives up when a budget runs out.
// Round h is the h-th hop, so onset faults strike mid-route.
func routeOne(nt *Net, router Router, plan *FaultPlan, policy ReroutePolicy, src, dst int) (pairResult, error) {
	res := pairResult{}
	if !plan.NodeAlive(src, 0) {
		res.outcome = PairSourceDead
		return res, nil
	}
	if plan.NodeDead(dst) {
		res.outcome = PairDestDead
		return res, nil
	}
	optimal, err := router.Route(src, dst)
	if err != nil {
		return res, err
	}
	res.optimal = len(optimal)
	if src == dst {
		res.outcome = PairDelivered
		return res, nil
	}
	d := nt.Ports()
	maxDetours := policy.maxDetours(d)
	hopLimit := policy.hopLimit(res.optimal)
	pending := optimal
	cur, prev := src, -1
	visited := map[int]bool{src: true}
	for h := 0; ; h++ {
		if cur == dst {
			res.outcome = PairDelivered
			return res, nil
		}
		if h >= hopLimit || !plan.NodeAlive(cur, h) {
			res.outcome = PairAborted
			res.hops = h
			return res, nil
		}
		if len(pending) == 0 {
			if pending, err = router.Route(cur, dst); err != nil {
				return res, err
			}
		}
		p := pending[0]
		if nt.Usable(plan, cur, p, h) {
			prev, cur = cur, nt.Neighbor(cur, p)
			pending = pending[1:]
			visited[cur] = true
			res.hops = h + 1
			continue
		}
		// Greedy step blocked: detour through the best usable
		// alternate generator, then recompute the route.  Preference
		// passes: unvisited nodes first (so the walk cannot ping-pong
		// between two detours), then visited but not an immediate
		// U-turn, then any usable port.
		if res.detours >= maxDetours {
			res.outcome = PairAborted
			res.hops = h
			return res, nil
		}
		alts, err := router.Alternates(cur, dst)
		if err != nil {
			return res, err
		}
		pick := -1
		for pass := 0; pass < 3 && pick < 0; pass++ {
			for _, q := range alts {
				if q == p || !nt.Usable(plan, cur, q, h) {
					continue
				}
				w := nt.Neighbor(cur, q)
				if pass == 0 && visited[w] {
					continue
				}
				if pass == 1 && w == prev {
					continue
				}
				pick = q
				break
			}
		}
		if pick < 0 {
			// Every outgoing link is blocked: the packet is stuck.
			res.outcome = PairAborted
			res.hops = h
			return res, nil
		}
		res.detours++
		prev, cur = cur, nt.Neighbor(cur, pick)
		visited[cur] = true
		pending = nil
		res.hops = h + 1
	}
}

// RouteSweep routes `pairs` seeded random (src, dst) pairs under the
// fault plan with adaptive rerouting and aggregates the degradation
// metrics.  The pair list is drawn sequentially from the seed and the
// walks are fanned out over GOMAXPROCS workers with order-independent
// reductions, so the result is deterministic across runs and worker
// counts.  Aborted pairs are reclassified as PairUnreachable when the
// survivor subgraph indeed disconnects them.
//
//scg:deterministic
func RouteSweep(nt *Net, router Router, plan *FaultPlan, pairs int, seed int64, policy ReroutePolicy) (SweepResult, error) {
	if pairs < 1 {
		return SweepResult{}, fmt.Errorf("sim: route sweep needs at least one pair")
	}
	if router.Route == nil || router.Alternates == nil {
		return SweepResult{}, fmt.Errorf("sim: route sweep needs both Route and Alternates")
	}
	n := nt.N()
	srcs, dsts := samplePairs(n, pairs, seed)
	results := make([]pairResult, pairs)
	errs := make([]error, graph.Parallelism(pairs))
	parallelChunks(pairs, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			r, err := routeOne(nt, router, plan, policy, srcs[i], dsts[i])
			if err != nil {
				if errs[worker] == nil {
					errs[worker] = err
				}
				return
			}
			results[i] = r
		}
	})
	for _, err := range errs {
		if err != nil {
			return SweepResult{}, err
		}
	}

	// Graceful-degradation classification: an aborted pair whose
	// destination is unreachable in the survivor subgraph is a
	// disconnection, not a router failure.
	dead := plan.finalDeadNodes()
	arcDown := plan.finalArcDown()
	var csr *graph.CSR
	reach := map[int][]bool{}
	for i := range results {
		if results[i].outcome != PairAborted {
			continue
		}
		if csr == nil {
			csr = nt.CSR()
		}
		from, ok := reach[srcs[i]]
		if !ok {
			from = csr.ReachableUnder(srcs[i], dead, arcDown)
			reach[srcs[i]] = from
		}
		if from == nil || !from[dsts[i]] {
			results[i].outcome = PairUnreachable
		}
	}

	res := SweepResult{Pairs: pairs}
	var hops, opt, abortHops int64
	for _, r := range results {
		switch r.outcome {
		case PairDelivered:
			res.Delivered++
			hops += int64(r.hops)
			opt += int64(r.optimal)
			res.Detours += int64(r.detours)
			if r.optimal > 0 {
				if s := float64(r.hops) / float64(r.optimal); s > res.MaxStretch {
					res.MaxStretch = s
				}
			}
		case PairSourceDead:
			res.SourceDead++
		case PairDestDead:
			res.DestDead++
		case PairUnreachable:
			res.Unreachable++
			abortHops += int64(r.hops)
		case PairAborted:
			res.Aborted++
			abortHops += int64(r.hops)
		}
	}
	res.DeliveredFraction = float64(res.Delivered) / float64(pairs)
	if opt > 0 {
		res.MeanStretch = float64(hops) / float64(opt)
	}
	if failed := res.Aborted + res.Unreachable; failed > 0 {
		res.MeanAbortHops = float64(abortHops) / float64(failed)
	}
	mSweepPairs.Add(uint64(pairs))
	mSweepDelivered.Add(uint64(res.Delivered))
	mSweepFailed.Add(uint64(pairs - res.Delivered))
	mSweepDetours.Add(uint64(res.Detours))
	mSweepBudget.Add(uint64(res.Aborted))

	if csr == nil {
		csr = nt.CSR()
	}
	st := csr.SurvivorStatsUnder(dead, arcDown)
	res.Survivors = SurvivorReport{
		Alive:             st.Survivors,
		DeadNodes:         plan.NodeFaults(),
		DeadLinks:         plan.LinkFaults(),
		LargestReach:      st.LargestReach,
		ReachableFraction: st.ReachableFraction(),
		Connected:         st.Connected,
	}
	return res, nil
}

// samplePairs draws the deterministic (src, dst) sample: sources and
// destinations uniform with src ≠ dst (unless n == 1).
func samplePairs(n, pairs int, seed int64) (srcs, dsts []int) {
	r := rand.New(rand.NewSource(seed))
	srcs = make([]int, pairs)
	dsts = make([]int, pairs)
	for i := 0; i < pairs; i++ {
		srcs[i] = r.Intn(n)
		dsts[i] = r.Intn(n)
		for n > 1 && dsts[i] == srcs[i] {
			dsts[i] = r.Intn(n)
		}
	}
	return srcs, dsts
}

// parallelChunks fans [0, n) out over GOMAXPROCS workers in
// contiguous chunks (mirrors graph.parallelChunks; kept local so the
// sweep loop stays allocation-free per pair).
func parallelChunks(n int, body func(worker, lo, hi int)) {
	workers := graph.Parallelism(n)
	if workers <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
