package graph

// BFSScratch holds the per-worker state of the single-source frontier
// BFS kernel: a distance array, two frontier buffers, and a per-level
// count buffer, each sized for Order().  One scratch serves every
// source a worker visits, so repeated-source drivers perform no
// per-source allocation.
type BFSScratch struct {
	dist     []int32
	frontier []int32
	next     []int32
	levels   []int32 // levels[d] = number of nodes at distance d
}

// NewBFSScratch allocates scratch for BFS over c.
func (c *CSR) NewBFSScratch() *BFSScratch {
	n := c.Order()
	return &BFSScratch{
		dist:     make([]int32, n),
		frontier: make([]int32, 0, n),
		next:     make([]int32, 0, n),
		levels:   make([]int32, 0, n+1),
	}
}

// sweep runs a frontier-based BFS from src and returns the distance
// profile: levels[d] nodes lie at distance d from src (levels[0] = 1).
// The slice is owned by s and reused by the next sweep; s.dist holds
// the per-node distances afterwards (-1 for unreachable).
// Eccentricity, distance sums, and reach counts all derive from the
// profile via levelStats.
func (c *CSR) sweep(src int32, s *BFSScratch) []int32 {
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	edges, offsets := c.edges, c.offsets
	frontier := append(s.frontier[:0], src)
	next := s.next[:0]
	levels := append(s.levels[:0], 1)
	for depth := int32(1); len(frontier) > 0; depth++ {
		next = next[:0]
		for _, v := range frontier {
			for _, w := range edges[offsets[v]:offsets[v+1]] {
				if dist[w] < 0 {
					dist[w] = depth
					next = append(next, w)
				}
			}
		}
		if len(next) > 0 {
			levels = append(levels, int32(len(next)))
		}
		frontier, next = next, frontier
	}
	// Keep the (possibly swapped) buffers so capacity survives reuse.
	s.frontier, s.next, s.levels = frontier, next, levels
	return levels
}

// levelStats folds a distance profile into (eccentricity, sum of
// finite distances, nodes reached).
func levelStats(levels []int32) (ecc int, sum int64, reached int) {
	for d, cnt := range levels {
		sum += int64(d) * int64(cnt)
		reached += int(cnt)
	}
	return len(levels) - 1, sum, reached
}

// Distances fills dist (reused when cap(dist) ≥ Order(), else newly
// allocated) with BFS distances from src, -1 for unreachable nodes.
// Equivalent to the legacy graph.BFS; passing the previous call's
// result avoids reallocating the distance array across sources.
func (c *CSR) Distances(src int, dist []int32) []int32 {
	n := c.Order()
	if cap(dist) < n {
		dist = make([]int32, n)
	}
	s := BFSScratch{
		dist:     dist[:n],
		frontier: make([]int32, 0, n),
		next:     make([]int32, 0, n),
		levels:   make([]int32, 0, n+1),
	}
	c.sweep(int32(src), &s)
	return s.dist
}

// Stats computes single-source distance statistics, matching the
// legacy StatsFrom field for field.
func (c *CSR) Stats(src int) Stats {
	s := c.NewBFSScratch()
	ecc, sum, reached := levelStats(c.sweep(int32(src), s))
	st := Stats{
		Source:      src,
		Ecc:         ecc,
		Reached:     reached,
		Connected:   reached == c.Order(),
		DistCounted: sum,
	}
	if reached > 1 {
		st.Mean = float64(sum) / float64(reached-1)
	}
	return st
}

// LooksVertexSymmetric checks the same necessary symmetry condition
// as the legacy implementation — identical distance profiles from up
// to sample evenly-spaced sources — with the sampled sources spread
// across the worker pool.
func (c *CSR) LooksVertexSymmetric(sample int) bool {
	n := c.Order()
	if n == 0 {
		return false
	}
	if sample > n {
		sample = n
	}
	refScratch := c.NewBFSScratch()
	ref := append([]int32(nil), c.sweep(0, refScratch)...)
	step := n / sample
	if step == 0 {
		step = 1
	}
	srcs := make([]int32, 0, n/step+1)
	for v := step; v < n; v += step {
		srcs = append(srcs, int32(v))
	}
	workers := Parallelism(len(srcs))
	mismatch := make([]bool, workers)
	parallelChunks(len(srcs), func(worker, lo, hi int) {
		s := c.NewBFSScratch()
		for i := lo; i < hi; i++ {
			p := c.sweep(srcs[i], s)
			if len(p) != len(ref) {
				mismatch[worker] = true
				return
			}
			for j := range p {
				if p[j] != ref[j] {
					mismatch[worker] = true
					return
				}
			}
		}
	})
	for _, m := range mismatch {
		if m {
			return false
		}
	}
	return true
}
