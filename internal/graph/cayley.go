package graph

import (
	"fmt"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// Cayley adapts a generator set to the Graph interface, addressing the
// k! nodes by Lehmer rank.  Neighbor queries unrank, apply each
// generator, and rerank; Materialize it for repeated analytics.
type Cayley struct {
	name string
	set  *gens.Set
	k    int
	n    int64
	buf  []int // reused by Neighbors; see its doc comment
}

// NewCayley wraps a generator set.  It refuses graphs with more than
// maxNodes nodes (0 = no limit) so that accidental k=12 exhaustive
// analytics fail fast instead of thrashing.
func NewCayley(name string, set *gens.Set, maxNodes int64) (*Cayley, error) {
	k := set.K()
	n := perm.Factorial(k)
	if maxNodes > 0 && n > maxNodes {
		return nil, fmt.Errorf("graph: %s has %d nodes, above limit %d", name, n, maxNodes)
	}
	if n > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("graph: %s too large for int node IDs", name)
	}
	return &Cayley{
		name: name,
		set:  set,
		k:    k,
		n:    n,
		buf:  make([]int, set.Len()),
	}, nil
}

// Name returns the display name.
func (c *Cayley) Name() string { return c.name }

// Order returns k!.
func (c *Cayley) Order() int { return int(c.n) }

// Neighbors returns the Lehmer ranks of v's out-neighbors.
//
// The returned slice AND internal permutation scratch are reused
// across calls: Neighbors is NOT safe for concurrent use, and callers
// must not retain the result past the next call.  Concurrent callers
// (e.g. the parallel CSR materializer) must use NeighborsInto with
// per-goroutine destination buffers instead.
func (c *Cayley) Neighbors(v int) []int {
	return c.NeighborsInto(c.buf, v)
}

// NeighborsInto writes the Lehmer ranks of v's out-neighbors into dst,
// which must have length ≥ Degree(), and returns dst[:Degree()].  It
// performs no heap allocation and touches no shared state, so it is
// safe for concurrent use with distinct dst buffers — this is the
// neighbor query the parallel CSR materializer runs on every worker.
func (c *Cayley) NeighborsInto(dst []int, v int) []int {
	var pb, qb [perm.MaxK]uint8
	p := perm.Perm(pb[:c.k])
	q := perm.Perm(qb[:c.k])
	perm.UnrankInto(p, int64(v))
	deg := c.set.Len()
	for i := 0; i < deg; i++ {
		c.set.At(i).ApplyInto(q, p)
		dst[i] = int(q.Rank())
	}
	return dst[:deg]
}

// Degree returns the out-degree (the number of generators).
func (c *Cayley) Degree() int { return c.set.Len() }

// NodePerm returns the permutation label of node v.
func (c *Cayley) NodePerm(v int) perm.Perm { return perm.Unrank(c.k, int64(v)) }
