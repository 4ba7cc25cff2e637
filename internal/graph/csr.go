package graph

import (
	"runtime"
	"sync"
)

// CSR is a compressed-sparse-row graph: the out-neighbors of every
// node live in one flat []int32 edge array, with offsets[v] ..
// offsets[v+1] delimiting node v's arcs.  Compared to the [][]int
// Adjacency representation it removes one pointer indirection per
// node, halves the per-arc footprint, and lays consecutive nodes'
// arcs contiguously, which keeps the BFS kernels in csr_analytics.go
// and csr_fault.go cache-friendly.
//
// A CSR is immutable after construction and safe for concurrent
// readers; all analytics methods on it may be called from multiple
// goroutines.
type CSR struct {
	name    string
	offsets []int64 // len Order()+1; offsets[v+1]-offsets[v] = out-degree of v
	edges   []int32 // len offsets[Order()]
}

// NewCSR builds a CSR from raw arrays (retained, not copied).
// offsets must have length n+1 with offsets[0] == 0, be nondecreasing,
// and offsets[n] == len(edges); every edge target must be in [0, n).
func NewCSR(name string, offsets []int64, edges []int32) *CSR {
	n := len(offsets) - 1
	if n < 0 || offsets[0] != 0 || offsets[n] != int64(len(edges)) {
		panic("graph: NewCSR offsets malformed")
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			panic("graph: NewCSR offsets decreasing")
		}
	}
	for _, w := range edges {
		if w < 0 || int(w) >= n {
			panic("graph: NewCSR edge target out of range")
		}
	}
	return &CSR{name: name, offsets: offsets, edges: edges}
}

// Name returns the display name.
func (c *CSR) Name() string { return c.name }

// Order returns the number of nodes.
func (c *CSR) Order() int { return len(c.offsets) - 1 }

// Arcs returns the out-neighbors of v as a subslice of the shared
// edge array.  Callers must not modify it.  This is the zero-copy
// accessor the BFS kernels use.
func (c *CSR) Arcs(v int) []int32 { return c.edges[c.offsets[v]:c.offsets[v+1]] }

// Neighbors returns the out-neighbors of v as a fresh []int so CSR
// satisfies the Graph interface (legacy analytics, DOT export).  Hot
// paths should use Arcs instead.
func (c *CSR) Neighbors(v int) []int {
	arcs := c.Arcs(v)
	out := make([]int, len(arcs))
	for i, w := range arcs {
		out[i] = int(w)
	}
	return out
}

// Parallelism returns the worker count the materializer and the
// multi-source drivers use: GOMAXPROCS, the knob Go exposes for it
// (set runtime.GOMAXPROCS or the GOMAXPROCS env var to change it),
// never more than one worker per unit of work.
func Parallelism(work int) int {
	p := runtime.GOMAXPROCS(0)
	if p > work {
		p = work
	}
	if p < 1 {
		p = 1
	}
	return p
}

// parallelChunks splits [0, n) into one contiguous chunk per worker
// and runs body(worker, lo, hi) concurrently.  Chunk boundaries
// depend only on n and the worker count, so per-worker partial
// results can be reduced in worker order deterministically.
func parallelChunks(n int, body func(worker, lo, hi int)) {
	workers := Parallelism(n)
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

// NewCSRFromCayley materializes a Cayley graph into CSR form by
// partitioning the Lehmer rank space 0..k!-1 into contiguous chunks
// across GOMAXPROCS workers.  Every worker queries neighbors through
// Cayley.NeighborsInto with its own scratch buffer, so no shared
// mutable state exists and the result is identical to the sequential
// Materialize path arc for arc.
func NewCSRFromCayley(cg *Cayley) *CSR {
	n := cg.Order()
	deg := cg.Degree()
	offsets := make([]int64, n+1)
	for v := 0; v <= n; v++ {
		offsets[v] = int64(v) * int64(deg)
	}
	edges := make([]int32, int64(n)*int64(deg))
	parallelChunks(n, func(_, lo, hi int) {
		scratch := make([]int, deg)
		for v := lo; v < hi; v++ {
			cg.NeighborsInto(scratch, v)
			base := int64(v) * int64(deg)
			for i, w := range scratch {
				edges[base+int64(i)] = int32(w)
			}
		}
	})
	return &CSR{name: cg.Name(), offsets: offsets, edges: edges}
}

// NewCSRFromGraph copies any Graph into CSR form (sequentially, since
// Graph.Neighbors is allowed to reuse its buffer and is therefore not
// safe to call concurrently).  If g is already a CSR it is returned
// as-is.  Cayley graphs should use NewCSRFromCayley, which
// materializes in parallel.
func NewCSRFromGraph(g Graph) *CSR {
	if c, ok := g.(*CSR); ok {
		return c
	}
	if cg, ok := g.(*Cayley); ok {
		return NewCSRFromCayley(cg)
	}
	n := g.Order()
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int64(len(g.Neighbors(v)))
	}
	edges := make([]int32, offsets[n])
	for v := 0; v < n; v++ {
		at := offsets[v]
		for _, w := range g.Neighbors(v) {
			edges[at] = int32(w)
			at++
		}
	}
	return &CSR{name: NameOf(g), offsets: offsets, edges: edges}
}
