// Package star implements the k-dimensional star graph of Akers,
// Harel and Krishnamurthy — the guest network every super Cayley graph
// in the paper emulates, and the reference point for all slowdown and
// dilation results.
//
// The k-star has k! nodes (the permutations of 1..k) and generator set
// T₂..T_k, where T_i swaps the symbols at positions 1 and i.  Its
// degree is k−1 and its diameter ⌊3(k−1)/2⌋.  Routing is solved by the
// greedy cycle algorithm, which is provably optimal; distances follow
// the closed-form cycle-structure formula (perm.StarDistance).
package star

import (
	"fmt"

	"supercayley/internal/gens"
	"supercayley/internal/graph"
	"supercayley/internal/perm"
)

// Graph is the k-dimensional star graph.
type Graph struct {
	k   int
	set *gens.Set
}

// New returns the k-star, k ≥ 2.
func New(k int) (*Graph, error) {
	if k < 2 || k > perm.MaxK {
		return nil, fmt.Errorf("star: k=%d out of range [2,%d]", k, perm.MaxK)
	}
	gs := make([]gens.Generator, 0, k-1)
	for i := 2; i <= k; i++ {
		gs = append(gs, gens.Transposition(k, i))
	}
	set, err := gens.NewSet(gs...)
	if err != nil {
		return nil, err
	}
	return &Graph{k: k, set: set}, nil
}

// Name returns e.g. "5-star".
func (g *Graph) Name() string { return fmt.Sprintf("%d-star", g.k) }

// N returns the number of nodes, k!.
func (g *Graph) N() int64 { return perm.Factorial(g.k) }

// Degree returns k−1.
func (g *Graph) Degree() int { return g.k - 1 }

// Set returns the generator set T₂..T_k.
func (g *Graph) Set() *gens.Set { return g.set }

// Gen returns the dimension-j generator T_j, 2 ≤ j ≤ k.
func (g *Graph) Gen(j int) gens.Generator {
	if j < 2 || j > g.k {
		panic(fmt.Sprintf("star: dimension %d out of range [2,%d]", j, g.k))
	}
	return g.set.At(j - 2)
}

// Distance returns the exact distance between two nodes.
func (g *Graph) Distance(u, v perm.Perm) int {
	return v.Inverse().Compose(u).StarDistance()
}

// SortToIdentity returns an optimal generator sequence carrying w to
// the identity (the greedy cycle algorithm): if the symbol x at
// position 1 is not 1, send it home with T_x; otherwise open any
// non-trivial cycle by fetching a misplaced symbol to position 1.
func (g *Graph) SortToIdentity(w perm.Perm) []gens.Generator {
	if len(w) != g.k {
		panic(fmt.Sprintf("star: SortToIdentity on %d symbols, want %d", len(w), g.k))
	}
	cur := w.Clone()
	var seq []gens.Generator
	for !cur.IsIdentity() {
		x := int(cur[0])
		if x != 1 {
			gx := g.Gen(x)
			seq = append(seq, gx)
			cur = gx.Apply(cur)
			continue
		}
		// Symbol 1 is home: fetch the first misplaced symbol.
		for i := 1; i < g.k; i++ {
			if int(cur[i]) != i+1 {
				gi := g.Gen(i + 1)
				seq = append(seq, gi)
				cur = gi.Apply(cur)
				break
			}
		}
	}
	return seq
}

// Route returns an optimal generator sequence from u to v: the same
// sequence that sorts w = v⁻¹∘u to the identity routes u to v, by
// vertex symmetry.
func (g *Graph) Route(u, v perm.Perm) []gens.Generator {
	return g.SortToIdentity(v.Inverse().Compose(u))
}

// Cayley returns the enumerated graph view (node IDs = Lehmer ranks),
// refusing graphs above maxNodes when maxNodes > 0.
func (g *Graph) Cayley(maxNodes int64) (*graph.Cayley, error) {
	return graph.NewCayley(g.Name(), g.set, maxNodes)
}
