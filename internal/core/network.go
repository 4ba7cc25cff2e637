package core

import (
	"fmt"

	"supercayley/internal/gens"
	"supercayley/internal/graph"
	"supercayley/internal/perm"
	"supercayley/internal/star"
)

// Network is an instantiated super Cayley graph: a family plus
// parameters (l boxes of n balls; k = nl+1 symbols, N = k! nodes).
type Network struct {
	family  Family
	l, n, k int
	set     *gens.Set
	star    *star.Graph // the (nl+1)-star this network emulates
	// dimExp[j] is EmulateStarDim(j) precompiled to generator indices
	// into set (j = 2..k); the zero-alloc routing kernel concatenates
	// these instead of re-expanding star moves on every call.
	dimExp [][]gens.GenIndex
}

// New constructs family f with l boxes of n balls each.  Constraints:
// n ≥ 1 and l ≥ 2 for multi-box families; use NewIS for the
// single-box insertion-selection network.
func New(f Family, l, n int) (*Network, error) {
	if f == IS {
		if l != 1 {
			return nil, fmt.Errorf("core: IS networks have a single box; use NewIS(k)")
		}
		return NewIS(n + 1)
	}
	if n < 1 {
		return nil, fmt.Errorf("core: n=%d must be ≥ 1", n)
	}
	if l < 2 {
		return nil, fmt.Errorf("core: %s(l=%d,n=%d) needs l ≥ 2", f, l, n)
	}
	k := n*l + 1
	if k > perm.MaxK {
		return nil, fmt.Errorf("core: k=nl+1=%d exceeds %d symbols", k, perm.MaxK)
	}
	set, err := buildSet(f, l, n)
	if err != nil {
		return nil, err
	}
	st, err := star.New(k)
	if err != nil {
		return nil, err
	}
	nw := &Network{family: f, l: l, n: n, k: k, set: set, star: st}
	nw.buildDimExp()
	return nw, nil
}

// NewIS constructs the k-dimensional insertion-selection network: one
// box holding k−1 balls plus the outside ball, generators I₂..I_k and
// I₃⁻¹..I_k⁻¹ (I₂⁻¹ coincides with I₂).
func NewIS(k int) (*Network, error) {
	if k < 2 || k > perm.MaxK {
		return nil, fmt.Errorf("core: IS k=%d out of range [2,%d]", k, perm.MaxK)
	}
	set, err := buildSet(IS, 1, k-1)
	if err != nil {
		return nil, err
	}
	st, err := star.New(k)
	if err != nil {
		return nil, err
	}
	nw := &Network{family: IS, l: 1, n: k - 1, k: k, set: set, star: st}
	nw.buildDimExp()
	return nw, nil
}

// MustNew is New but panics on error.
func MustNew(f Family, l, n int) *Network {
	nw, err := New(f, l, n)
	if err != nil {
		panic(err)
	}
	return nw
}

// Name returns e.g. "MS(4,3)" or "IS(13)".
func (nw *Network) Name() string {
	if nw.family == IS {
		return fmt.Sprintf("IS(%d)", nw.k)
	}
	return fmt.Sprintf("%s(%d,%d)", nw.family, nw.l, nw.n)
}

// Family returns the network's family.
func (nw *Network) Family() Family { return nw.family }

// L returns the number of boxes (super-symbols); 1 for IS.
func (nw *Network) L() int { return nw.l }

// BoxSize returns n, the number of balls per box.
func (nw *Network) BoxSize() int { return nw.n }

// K returns the number of symbols, nl+1.
func (nw *Network) K() int { return nw.k }

// N returns the number of nodes, k!.
func (nw *Network) N() int64 { return perm.Factorial(nw.k) }

// Degree returns the out-degree (number of generators).
func (nw *Network) Degree() int { return nw.set.Len() }

// Set returns the generator set.
func (nw *Network) Set() *gens.Set { return nw.set }

// Star returns the (nl+1)-star graph this network emulates.
func (nw *Network) Star() *star.Graph { return nw.star }

// DimExpansion returns the precompiled generator-index expansion of
// star move T_j (j = 2..K()): the compact form of EmulateStarDim(j).
// The returned slice is shared and must not be modified; table-mode
// routing (internal/tables) replays these per greedy dimension.
func (nw *Network) DimExpansion(j int) []gens.GenIndex {
	if j < 2 || j > nw.k {
		panic(fmt.Sprintf("core: DimExpansion(%d) out of range [2,%d] on %s", j, nw.k, nw.Name()))
	}
	return nw.dimExp[j]
}

// Directed reports whether the network is a directed Cayley graph.
func (nw *Network) Directed() bool { return !nw.set.Closed() }

// Cayley returns the enumerated graph view (node IDs = Lehmer ranks).
func (nw *Network) Cayley(maxNodes int64) (*graph.Cayley, error) {
	return graph.NewCayley(nw.Name(), nw.set, maxNodes)
}

// SplitDim decomposes a star dimension j (2 ≤ j ≤ k) into the paper's
// j₀ = (j−2) mod n and j₁ = ⌊(j−2)/n⌋.  Dimension j addresses the
// symbol at offset j₀ of super-symbol j₁+1; j₁ = 0 means the leftmost
// box, reachable by nucleus generators alone.
func (nw *Network) SplitDim(j int) (j0, j1 int) {
	if j < 2 || j > nw.k {
		panic(fmt.Sprintf("core: dimension %d out of range [2,%d]", j, nw.k))
	}
	return (j - 2) % nw.n, (j - 2) / nw.n
}

// JoinDim is the inverse of SplitDim: j = j₁·n + j₀ + 2.
func (nw *Network) JoinDim(j0, j1 int) int { return j1*nw.n + j0 + 2 }

// lookup returns the set's generator matching g — by name first (so
// that parallel links such as I₂ vs I₂⁻¹ keep their identity), then by
// action.  Expansion sequences must reference the canonical set
// generators so that schedulers can treat them as link labels.
func (nw *Network) lookup(g gens.Generator) gens.Generator {
	if h, ok := nw.set.ByName(g.Name()); ok {
		return h
	}
	idx := nw.set.IndexOfAction(g)
	if idx < 0 {
		panic(fmt.Sprintf("core: %s: generator %s not in set", nw.Name(), g.Name()))
	}
	return nw.set.At(idx)
}

// rotation returns the set generator realizing Rⁱ (i taken mod l).
func (nw *Network) rotation(i int) gens.Generator {
	return nw.lookup(gens.Rotation(nw.n, nw.l, i))
}

// BringBox returns the super-generator sequence Bᵢ that brings
// super-symbol i (2 ≤ i ≤ l) to the leftmost box position:
//
//   - swap super:               Bᵢ = Sᵢ (one step)
//   - complete rotations:       Bᵢ = R^−(i−1) (one step)
//   - single rotation (RS/RIS): the shorter of R⁻¹×(i−1) or R×(l−i+1)
//   - RR (R only, directed):    R×(l−i+1)
//
// The paper's Theorems 4–6 use Bᵢ as the unified "move box i to the
// front" abstraction across families.
func (nw *Network) BringBox(i int) []gens.Generator {
	if i < 2 || i > nw.l {
		panic(fmt.Sprintf("core: BringBox(%d) out of range [2,%d]", i, nw.l))
	}
	switch nw.family.Super() {
	case SuperSwap:
		return []gens.Generator{nw.lookup(gens.Swap(nw.n, nw.l, i))}
	case SuperCompleteRotation:
		return []gens.Generator{nw.rotation(nw.l - (i - 1))}
	case SuperRotation:
		back, fwd := i-1, nw.l-(i-1)
		if nw.family.Directed() {
			return repeatGen(nw.rotation(1), fwd)
		}
		if back <= fwd {
			return repeatGen(nw.rotation(nw.l-1), back)
		}
		return repeatGen(nw.rotation(1), fwd)
	}
	panic("core: BringBox on single-box network")
}

// ReturnBox returns Bᵢ⁻¹, the sequence restoring box i to its original
// position after BringBox(i).
func (nw *Network) ReturnBox(i int) []gens.Generator {
	if i < 2 || i > nw.l {
		panic(fmt.Sprintf("core: ReturnBox(%d) out of range [2,%d]", i, nw.l))
	}
	switch nw.family.Super() {
	case SuperSwap:
		return []gens.Generator{nw.lookup(gens.Swap(nw.n, nw.l, i))}
	case SuperCompleteRotation:
		return []gens.Generator{nw.rotation(i - 1)}
	case SuperRotation:
		back, fwd := i-1, nw.l-(i-1)
		if nw.family.Directed() {
			return repeatGen(nw.rotation(1), back)
		}
		if back <= fwd {
			return repeatGen(nw.rotation(1), back)
		}
		return repeatGen(nw.rotation(nw.l-1), fwd)
	}
	panic("core: ReturnBox on single-box network")
}

func repeatGen(g gens.Generator, times int) []gens.Generator {
	out := make([]gens.Generator, times)
	for i := range out {
		out[i] = g
	}
	return out
}

// NucleusTransposition returns the generator sequence emulating the
// star transposition T_m within the leftmost box (2 ≤ m ≤ n+1):
//
//   - transposition nucleus:        [T_m]                  (1 step)
//   - insertion/selection nucleus:  [I_m, I_{m−1}⁻¹]       (2 steps; [I₂] for m=2)
//   - insertion-only nucleus:       [I_m, I_{m−1}×(m−2)]   (I⁻¹ expanded as a power)
func (nw *Network) NucleusTransposition(m int) []gens.Generator {
	if m < 2 || m > nw.n+1 {
		panic(fmt.Sprintf("core: nucleus transposition T%d out of range [2,%d]", m, nw.n+1))
	}
	switch nw.family.Nucleus() {
	case NucleusTransposition:
		return []gens.Generator{nw.lookup(gens.Transposition(nw.k, m))}
	case NucleusInsertionSelection:
		if m == 2 {
			return []gens.Generator{nw.lookup(gens.Insertion(nw.k, 2))}
		}
		return []gens.Generator{
			nw.lookup(gens.Insertion(nw.k, m)),
			nw.lookup(gens.Selection(nw.k, m-1)),
		}
	case NucleusInsertion:
		if m == 2 {
			return []gens.Generator{nw.lookup(gens.Insertion(nw.k, 2))}
		}
		seq := []gens.Generator{nw.lookup(gens.Insertion(nw.k, m))}
		return append(seq, repeatGen(nw.lookup(gens.Insertion(nw.k, m-1)), m-2)...)
	}
	panic("unreachable")
}

// EmulateStarDim returns the generator sequence emulating the
// dimension-j link of the (nl+1)-star (Theorems 1–3): a bare nucleus
// expansion when j₁ = 0, otherwise B_{j₁+1} · nucleus(T_{j₀+2}) ·
// B_{j₁+1}⁻¹.  The sequence length is the per-dimension dilation: 3
// for MS/Complete-RS, 2 for IS, 4 for MIS/Complete-RIS.
func (nw *Network) EmulateStarDim(j int) []gens.Generator {
	j0, j1 := nw.SplitDim(j)
	if nw.family == IS {
		// Single box: every dimension is a nucleus dimension.
		if j == 2 {
			return []gens.Generator{nw.lookup(gens.Insertion(nw.k, 2))}
		}
		return []gens.Generator{
			nw.lookup(gens.Insertion(nw.k, j)),
			nw.lookup(gens.Selection(nw.k, j-1)),
		}
	}
	nucleus := nw.NucleusTransposition(j0 + 2)
	if j1 == 0 {
		return nucleus
	}
	box := j1 + 1
	seq := append([]gens.Generator{}, nw.BringBox(box)...)
	seq = append(seq, nucleus...)
	return append(seq, nw.ReturnBox(box)...)
}

// MaxDilation returns the length of the longest EmulateStarDim
// expansion — the dilation of the star-graph embedding of Theorems
// 1–3 (3 for MS/Complete-RS, 2 for IS, 4 for MIS/Complete-RIS; larger
// for the single-rotation and insertion-only families, where Bᵢ or the
// nucleus inverse is realized as a power).
func (nw *Network) MaxDilation() int {
	max := 0
	for j := 2; j <= nw.k; j++ {
		if d := len(nw.EmulateStarDim(j)); d > max {
			max = d
		}
	}
	return max
}

// Route returns a generator sequence from u to v.  The route emulates
// the optimal star-graph route (greedy cycle algorithm) by expanding
// each star move with EmulateStarDim, so its length is at most
// MaxDilation · starDistance(u,v).  It is within a constant factor of
// optimal for every family and exactly the paper's Theorem 1–3
// emulation paths.
func (nw *Network) Route(u, v perm.Perm) []gens.Generator {
	if len(u) != nw.k || len(v) != nw.k {
		panic(fmt.Sprintf("core: Route on %s wants %d symbols", nw.Name(), nw.k))
	}
	starSeq := nw.star.Route(u, v)
	var seq []gens.Generator
	for _, sg := range starSeq {
		seq = append(seq, nw.EmulateStarDim(sg.Dim())...)
	}
	return seq
}
