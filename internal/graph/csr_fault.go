package graph

import (
	"fmt"
	"math/bits"
)

// Reachability under vertex and edge deletion: the fault-tolerance
// backbone.  A fault set (dead nodes, dead arcs) induces the survivor
// subgraph; the questions the fault simulator asks — which survivors
// can still reach which, how large is the largest reachable set, is
// the survivor graph still strongly connected — are answered here by
// a masked multi-source bit-parallel BFS (MS-BFS).
//
// Running one BFS per source reads the whole edge array once per
// source.  MS-BFS amortizes that memory traffic by advancing 64
// sources together: each node carries a 64-bit visited mask (bit i
// set ⇔ reached from source i), and one pass over the active nodes'
// arcs per level ORs frontier masks into neighbors, so the per-arc
// work is a single 64-wide AND-NOT/OR.  Dead nodes never enter a
// frontier and dead arcs are skipped during relaxation.

// ArcDownFunc reports whether the i-th out-arc of node v is deleted
// (i indexes into Arcs(v), matching the port order of Cayley
// materializations).  A nil ArcDownFunc means no arc faults.
type ArcDownFunc func(v, i int) bool

// msScratch is the per-worker state for one 64-source batch: visited,
// current-frontier and next-frontier masks per node, plus the active
// node lists.
type msScratch struct {
	vis  []uint64
	cur  []uint64
	nxt  []uint64
	list []int32 // nodes with cur != 0
	next []int32 // nodes with nxt != 0
}

func (c *CSR) newMSScratch() *msScratch {
	n := c.Order()
	return &msScratch{
		vis:  make([]uint64, n),
		cur:  make([]uint64, n),
		nxt:  make([]uint64, n),
		list: make([]int32, 0, n),
		next: make([]int32, 0, n),
	}
}

// msResult accumulates per-source statistics for one batch.
type msResult struct {
	ecc     [64]int32
	sum     [64]int64
	reached [64]int32
}

// msbfsUnder runs one bit-parallel BFS over the ≤64 sources srcs in
// the survivor subgraph, filling res with each source's eccentricity,
// sum of finite distances, and reached-node count (including the
// source itself).  Sources must be alive; dead nodes are never
// visited and arcs with arcDown(v, i) true are skipped.  dead and
// arcDown may be nil (no faults).
func (c *CSR) msbfsUnder(srcs []int32, s *msScratch, res *msResult, dead []bool, arcDown ArcDownFunc) {
	vis, cur, nxt := s.vis, s.cur, s.nxt
	for i := range vis {
		vis[i] = 0
		cur[i] = 0
	}
	*res = msResult{}
	list := s.list[:0]
	for i, src := range srcs {
		bit := uint64(1) << uint(i)
		if vis[src] == 0 && cur[src] == 0 {
			list = append(list, src)
		}
		vis[src] |= bit
		cur[src] |= bit
		res.reached[i] = 1
	}
	edges, offsets := c.edges, c.offsets
	next := s.next[:0]
	for depth := int32(1); len(list) > 0; depth++ {
		next = next[:0]
		for _, v := range list {
			fm := cur[v]
			cur[v] = 0
			row := edges[offsets[v]:offsets[v+1]]
			for i, w := range row {
				if dead != nil && dead[w] {
					continue
				}
				if arcDown != nil && arcDown(int(v), i) {
					continue
				}
				if d := fm &^ vis[w]; d != 0 {
					if nxt[w] == 0 {
						next = append(next, w)
					}
					nxt[w] |= d
				}
			}
		}
		for _, w := range next {
			newBits := nxt[w] &^ vis[w]
			nxt[w] = 0
			if newBits == 0 {
				continue
			}
			vis[w] |= newBits
			cur[w] = newBits
			for b := newBits; b != 0; b &= b - 1 {
				i := bits.TrailingZeros64(b)
				res.ecc[i] = depth
				res.sum[i] += int64(depth)
				res.reached[i]++
			}
		}
		list, next = next, list
	}
	s.list, s.next = list, next
}

// SurvivorStats summarizes directed reachability among the survivors
// of a fault set.
type SurvivorStats struct {
	// Survivors is the number of live nodes.
	Survivors int
	// ReachablePairs counts ordered survivor pairs (u, v), u ≠ v,
	// with v reachable from u inside the survivor subgraph.
	ReachablePairs int64
	// LargestReach is the largest reachable set of any single live
	// source (including the source itself).
	LargestReach int
	// Connected reports whether every survivor reaches every other
	// (ReachablePairs == Survivors·(Survivors−1)).
	Connected bool
}

// ReachableFraction returns ReachablePairs over the total ordered
// survivor pairs, 1 for an intact or single-node survivor set.
func (s SurvivorStats) ReachableFraction() float64 {
	total := int64(s.Survivors) * int64(s.Survivors-1)
	if total <= 0 {
		return 1
	}
	return float64(s.ReachablePairs) / float64(total)
}

// SurvivorStatsUnder sweeps every live node as a masked MS-BFS source
// (64 per batch across the worker pool) and reduces per-worker
// partials in worker order, so the result is independent of
// GOMAXPROCS.  dead may be nil (no node faults); len(dead), when non
// nil, must equal Order().
//
//scg:deterministic
func (c *CSR) SurvivorStatsUnder(dead []bool, arcDown ArcDownFunc) SurvivorStats {
	n := c.Order()
	if dead != nil && len(dead) != n {
		panic(fmt.Sprintf("graph: SurvivorStatsUnder dead mask has %d entries, want %d", len(dead), n))
	}
	live := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if dead == nil || !dead[v] {
			live = append(live, int32(v))
		}
	}
	st := SurvivorStats{Survivors: len(live)}
	if len(live) == 0 {
		st.Connected = true
		return st
	}
	batches := (len(live) + 63) / 64
	workers := Parallelism(batches)
	pairs := make([]int64, workers)
	largest := make([]int, workers)
	parallelChunks(batches, func(worker, lo, hi int) {
		s := c.newMSScratch()
		var res msResult
		srcs := make([]int32, 0, 64)
		for b := lo; b < hi; b++ {
			srcs = srcs[:0]
			for i := b * 64; i < (b+1)*64 && i < len(live); i++ {
				srcs = append(srcs, live[i])
			}
			c.msbfsUnder(srcs, s, &res, dead, arcDown)
			for i := range srcs {
				reached := int(res.reached[i])
				pairs[worker] += int64(reached - 1)
				if reached > largest[worker] {
					largest[worker] = reached
				}
			}
		}
	})
	for w := 0; w < workers; w++ {
		st.ReachablePairs += pairs[w]
		if largest[w] > st.LargestReach {
			st.LargestReach = largest[w]
		}
	}
	st.Connected = st.ReachablePairs == int64(st.Survivors)*int64(st.Survivors-1)
	return st
}

// ReachableUnder returns the set of nodes reachable from src in the
// survivor subgraph (including src itself; nil if src is dead).
func (c *CSR) ReachableUnder(src int, dead []bool, arcDown ArcDownFunc) []bool {
	n := c.Order()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("graph: ReachableUnder src %d out of range [0,%d)", src, n))
	}
	if dead != nil && dead[src] {
		return nil
	}
	s := c.newMSScratch()
	var res msResult
	c.msbfsUnder([]int32{int32(src)}, s, &res, dead, arcDown)
	out := make([]bool, n)
	for v := range out {
		out[v] = s.vis[v] != 0
	}
	return out
}

// ReachMatrix is a dense n×n reachability bit matrix: At(u, v)
// reports whether v is reachable from u.  Rows of dead sources are
// all-zero.
type ReachMatrix struct {
	n     int
	words int
	bits  []uint64
}

// At reports whether v is reachable from u.
func (m *ReachMatrix) At(u, v int) bool {
	return m.bits[u*m.words+v>>6]&(1<<uint(v&63)) != 0
}

// MaxReachMatrixNodes bounds the dense reachability matrix: beyond
// ~16k nodes the n² bits outgrow the caches the masked BFS relies on
// (8! would already need 203 MB).  Callers above the bound should use
// per-source ReachableUnder sweeps instead.
const MaxReachMatrixNodes = 16384

// ReachMatrixUnder computes the full survivor reachability matrix
// with batched masked MS-BFS.  Batches write disjoint row ranges, so
// the parallel fill is race-free and the result deterministic.
//
//scg:deterministic
func (c *CSR) ReachMatrixUnder(dead []bool, arcDown ArcDownFunc) (*ReachMatrix, error) {
	n := c.Order()
	if n > MaxReachMatrixNodes {
		return nil, fmt.Errorf("graph: reachability matrix on %d nodes exceeds limit %d", n, MaxReachMatrixNodes)
	}
	if dead != nil && len(dead) != n {
		return nil, fmt.Errorf("graph: ReachMatrixUnder dead mask has %d entries, want %d", len(dead), n)
	}
	words := (n + 63) / 64
	m := &ReachMatrix{n: n, words: words, bits: make([]uint64, n*words)}
	live := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if dead == nil || !dead[v] {
			live = append(live, int32(v))
		}
	}
	if len(live) == 0 {
		return m, nil
	}
	batches := (len(live) + 63) / 64
	parallelChunks(batches, func(_, lo, hi int) {
		s := c.newMSScratch()
		var res msResult
		srcs := make([]int32, 0, 64)
		for b := lo; b < hi; b++ {
			srcs = srcs[:0]
			for i := b * 64; i < (b+1)*64 && i < len(live); i++ {
				srcs = append(srcs, live[i])
			}
			c.msbfsUnder(srcs, s, &res, dead, arcDown)
			for v := 0; v < n; v++ {
				vb := s.vis[v]
				if vb == 0 {
					continue
				}
				for b := vb; b != 0; b &= b - 1 {
					i := bits.TrailingZeros64(b)
					src := int(srcs[i])
					m.bits[src*words+v>>6] |= 1 << uint(v&63)
				}
			}
		}
	})
	return m, nil
}
