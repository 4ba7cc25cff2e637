package embed

import (
	"fmt"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/star"
	"supercayley/internal/topologies"
)

// maxEnumNodes bounds the Cayley graphs we are willing to enumerate
// for measurement (8! = 40320).
const maxEnumNodes = 45000

// pathApply materializes the Lehmer-rank path obtained by applying a
// generator sequence from a start permutation.
func pathApply(start perm.Perm, seq []gens.Generator) []int {
	path := make([]int, 0, len(seq)+1)
	path = append(path, int(start.Rank()))
	cur := start
	for _, g := range seq {
		cur = g.Apply(cur)
		path = append(path, int(cur.Rank()))
	}
	return path
}

// StarInto embeds the (nl+1)-star into the super Cayley network nw
// with the identity node map and the Theorem 1–3 expansion paths.
// Dilation: 3 for MS/Complete-RS, 2 for IS, 4 for MIS/Complete-RIS.
func StarInto(nw *core.Network) (*Embedding, error) {
	st := nw.Star()
	guest, err := st.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	host, err := nw.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	k := nw.K()
	seqOf := func(u, v int) (perm.Perm, []gens.Generator, error) {
		pu := perm.Unrank(k, int64(u))
		pv := perm.Unrank(k, int64(v))
		j, err := starArcDim(pu, pv)
		if err != nil {
			return nil, nil, err
		}
		return pu, nw.EmulateStarDim(j), nil
	}
	return &Embedding{
		Name:    fmt.Sprintf("%s into %s", st.Name(), nw.Name()),
		Guest:   guest,
		Host:    host,
		NodeOf:  func(g int) int { return g },
		SeqOf:   seqOf,
		HostSet: nw.Set(),
		PathOf: func(u, v int) ([]int, error) {
			pu, seq, err := seqOf(u, v)
			if err != nil {
				return nil, err
			}
			return pathApply(pu, seq), nil
		},
	}, nil
}

// starArcDim returns the dimension j with v = T_j(u).
func starArcDim(u, v perm.Perm) (int, error) {
	for j := 2; j <= len(u); j++ {
		if v[0] == u[j-1] && v[j-1] == u[0] {
			// Confirm all other positions match.
			ok := true
			for i := 1; i < len(u); i++ {
				if i != j-1 && u[i] != v[i] {
					ok = false
					break
				}
			}
			if ok {
				return j, nil
			}
		}
	}
	return 0, fmt.Errorf("embed: %v and %v are not star-adjacent", u, v)
}

// TNSequence returns the generator sequence realizing the
// transposition-network generator Tᵢⱼ (1 ≤ i < j ≤ k) on nw — the
// Theorem 6 equivalence table, extended to every family via the
// per-family nucleus expansion and Bᵢ realization:
//
//	T_j                                          i = 1, j₁ = 0
//	B_{j₁+1} T_{j₀+2} B⁻¹_{j₁+1}                 i = 1, j₁ > 0
//	Tᵢ T_j Tᵢ                                    i₁ = j₁ = 0
//	Tᵢ B_{j₁+1} T_{j₀+2} B⁻¹_{j₁+1} Tᵢ           i₁ = 0, j₁ > 0
//	B_{i₁+1} T_{i₀+2} T_{j₀+2} T_{i₀+2} B⁻¹_{i₁+1}   i₁ = j₁ > 0
//	B_{i₁+1} T_{i₀+2} B' T_{j₀+2} B'⁻¹ T_{i₀+2} B⁻¹_{i₁+1}   i₁ ≠ j₁, both > 0
//
// where for rotation-based families B' is the relative rotation that
// brings box j₁+1 to the front while box i₁+1 is already there.
func TNSequence(nw *core.Network, i, j int) ([]gens.Generator, error) {
	k := nw.K()
	if i < 1 || j <= i || j > k {
		return nil, fmt.Errorf("embed: T%d,%d needs 1 ≤ i < j ≤ %d", i, j, k)
	}
	if i == 1 {
		return nw.EmulateStarDim(j), nil
	}
	if nw.Family() == core.IS {
		// Single box: conjugate T_j by T_i, each via nucleus expansion.
		ti, tj := nw.EmulateStarDim(i), nw.EmulateStarDim(j)
		seq := append(append(append([]gens.Generator{}, ti...), tj...), ti...)
		return seq, nil
	}
	i0, i1 := nw.SplitDim(i)
	j0, j1 := nw.SplitDim(j)
	nucI := nw.NucleusTransposition(i0 + 2)
	nucJ := nw.NucleusTransposition(j0 + 2)
	switch {
	case i1 == 0 && j1 == 0:
		return concat(nucI, nucJ, nucI), nil
	case i1 == 0 && j1 > 0:
		return concat(nucI, nw.BringBox(j1+1), nucJ, nw.ReturnBox(j1+1), nucI), nil
	case i1 == j1:
		return concat(nw.BringBox(i1+1), nucI, nucJ, nucI, nw.ReturnBox(i1+1)), nil
	default:
		// i₁ ≠ j₁, both > 0.
		mid, midInv, err := relativeBring(nw, i1+1, j1+1)
		if err != nil {
			return nil, err
		}
		return concat(nw.BringBox(i1+1), nucI, mid, nucJ, midInv, nucI, nw.ReturnBox(i1+1)), nil
	}
}

// relativeBring returns the super-generator sequences that exchange
// the front box (currently box a, brought there by BringBox(a)) for
// box b, and back.  For swap supers Sᵦ does this directly; for
// rotation supers the required amount is relative to the rotation
// already applied.
func relativeBring(nw *core.Network, a, b int) (fwd, back []gens.Generator, err error) {
	switch nw.Family().Super() {
	case core.SuperSwap:
		return nw.BringBox(b), nw.ReturnBox(b), nil
	case core.SuperCompleteRotation, core.SuperRotation:
		l := nw.L()
		// After rotating left by a−1, box b sits at box-position
		// b−(a−1); bring it to the front by rotating left a further
		// d = b−a (mod l) positions.
		d := ((b-a)%l + l) % l
		if d == 0 {
			return nil, nil, fmt.Errorf("embed: relativeBring(%d,%d): boxes coincide", a, b)
		}
		return rotationPower(nw, -d), rotationPower(nw, d), nil
	}
	return nil, nil, fmt.Errorf("embed: %s has no super generators", nw.Name())
}

// rotationPower realizes a rotation by t box positions (positive =
// right/R direction) as a generator sequence of the network.
func rotationPower(nw *core.Network, t int) []gens.Generator {
	l := nw.L()
	t = ((t % l) + l) % l
	if t == 0 {
		return nil
	}
	set := nw.Set()
	if nw.Family().Super() == core.SuperCompleteRotation {
		idx := set.IndexOfAction(gens.Rotation(nw.BoxSize(), l, t))
		return []gens.Generator{set.At(idx)}
	}
	// Single rotation: repeat R (t times) or R⁻¹ (l−t times),
	// whichever is shorter and available.
	r := set.At(set.IndexOfAction(gens.Rotation(nw.BoxSize(), l, 1)))
	invIdx := set.IndexOfAction(gens.Rotation(nw.BoxSize(), l, l-1))
	if invIdx >= 0 && l-t < t {
		out := make([]gens.Generator, l-t)
		for i := range out {
			out[i] = set.At(invIdx)
		}
		return out
	}
	out := make([]gens.Generator, t)
	for i := range out {
		out[i] = r
	}
	return out
}

func concat(seqs ...[]gens.Generator) []gens.Generator {
	var out []gens.Generator
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

// TNInto embeds the k-TN into nw with the identity node map and the
// TNSequence paths (Theorems 6 and 7): dilation 5 (l=2) / 7 (l≥3) for
// MS and Complete-RS, 6 for IS, O(1) for MIS/Complete-RIS.
func TNInto(nw *core.Network) (*Embedding, error) {
	k := nw.K()
	tn, err := topologies.NewTranspositionNetwork(k)
	if err != nil {
		return nil, err
	}
	guest, err := tn.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	host, err := nw.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	seqOf := func(u, v int) (perm.Perm, []gens.Generator, error) {
		pu := perm.Unrank(k, int64(u))
		pv := perm.Unrank(k, int64(v))
		i, j, err := tnArcPair(pu, pv)
		if err != nil {
			return nil, nil, err
		}
		seq, err := TNSequence(nw, i, j)
		return pu, seq, err
	}
	return &Embedding{
		Name:    fmt.Sprintf("%s into %s", tn.Name(), nw.Name()),
		Guest:   guest,
		Host:    host,
		NodeOf:  func(g int) int { return g },
		SeqOf:   seqOf,
		HostSet: nw.Set(),
		PathOf: func(u, v int) ([]int, error) {
			pu, seq, err := seqOf(u, v)
			if err != nil {
				return nil, err
			}
			return pathApply(pu, seq), nil
		},
	}, nil
}

// tnArcPair returns the positions (i < j) with v = Tᵢⱼ(u).
func tnArcPair(u, v perm.Perm) (int, int, error) {
	i, j := 0, 0
	for p := range u {
		if u[p] != v[p] {
			if i == 0 {
				i = p + 1
			} else if j == 0 {
				j = p + 1
			} else {
				return 0, 0, fmt.Errorf("embed: %v and %v differ in more than two positions", u, v)
			}
		}
	}
	if j == 0 || u[i-1] != v[j-1] || u[j-1] != v[i-1] {
		return 0, 0, fmt.Errorf("embed: %v and %v are not TN-adjacent", u, v)
	}
	return i, j, nil
}

// BubbleSortInto embeds the k-bubble-sort graph into nw.  Since the
// bubble-sort graph is the subgraph of k-TN induced by the adjacent
// transpositions, its embedding reuses the TN paths (the paper's
// remark after Theorem 7).
func BubbleSortInto(nw *core.Network) (*Embedding, error) {
	k := nw.K()
	bs, err := topologies.NewBubbleSort(k)
	if err != nil {
		return nil, err
	}
	guest, err := bs.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	host, err := nw.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	seqOf := func(u, v int) (perm.Perm, []gens.Generator, error) {
		pu := perm.Unrank(k, int64(u))
		pv := perm.Unrank(k, int64(v))
		i, j, err := tnArcPair(pu, pv)
		if err != nil {
			return nil, nil, err
		}
		seq, err := TNSequence(nw, i, j)
		return pu, seq, err
	}
	return &Embedding{
		Name:    fmt.Sprintf("%s into %s", bs.Name(), nw.Name()),
		Guest:   guest,
		Host:    host,
		NodeOf:  func(g int) int { return g },
		SeqOf:   seqOf,
		HostSet: nw.Set(),
		PathOf: func(u, v int) ([]int, error) {
			pu, seq, err := seqOf(u, v)
			if err != nil {
				return nil, err
			}
			return pathApply(pu, seq), nil
		},
	}, nil
}

// StarDimBits returns the number of hypercube dimensions the
// transposition-factorization embedding packs into the k-star:
// Σ_{m=2..k} ⌊log₂ m⌋ = k·log₂k − Θ(k), matching Corollary 5's bound
// shape.
func StarDimBits(k int) int {
	d := 0
	for m := 2; m <= k; m++ {
		for b := 1; 1<<uint(b+1) <= m; b++ {
			d++
		}
		d++ // ⌊log₂ m⌋ ≥ 1 for m ≥ 2
	}
	return d
}

// factorBitLayout realizes the transposition-factorization embedding
// of hypercubes into permutation Cayley graphs.  Every permutation of
// k symbols factors uniquely as
//
//	σ = (1,a₁)·(2,a₂)·…·(k−1,a₍k₋₁₎),  aₚ ∈ {p, …, k}
//
// ((p,p) meaning the identity factor).  Writing aₚ = p + dₚ with digit
// dₚ ∈ [0, k−p], the layout packs ⌊log₂(k−p+1)⌋ hypercube bits into
// digit dₚ.  Flipping any single bit replaces one factor (p,x) by
// (p,y), so the two images differ by L·(p,y)(p,x)·L⁻¹ — a conjugated
// 3-cycle (a transposition when x or y equals p).  Hence dilation ≤ 2
// into the k-TN and ≤ 4 into the k-star, for the full
// d = k·log₂k − Θ(k) dimensions of Corollary 5.
type factorBitLayout struct {
	k      int
	bits   []int // bits per factor position p = 1..k-1 (index p-1)
	offset []int
	total  int
}

func newFactorBitLayout(k int) *factorBitLayout {
	l := &factorBitLayout{k: k, bits: make([]int, k-1), offset: make([]int, k-1)}
	for p := 1; p < k; p++ {
		radix := k - p + 1 // digit values 0..k-p
		b := 0
		for 1<<uint(b+1) <= radix {
			b++
		}
		l.offset[p-1] = l.total
		l.bits[p-1] = b
		l.total += b
	}
	return l
}

// permOf maps a hypercube node to the permutation obtained by
// composing the factors (p, p+dₚ) in order of increasing p.
func (l *factorBitLayout) permOf(x int) perm.Perm {
	cur := perm.Identity(l.k)
	for p := 1; p < l.k; p++ {
		d := (x >> uint(l.offset[p-1])) & ((1 << uint(l.bits[p-1])) - 1)
		if d == 0 {
			continue
		}
		cur = gens.TranspositionIJ(l.k, p, p+d).Apply(cur)
	}
	return cur
}

// HypercubeIntoStar embeds Q_d, d = StarDimBits(k), into the k-star
// with dilation ≤ 4 via the transposition factorization: a bit flip
// yields a conjugated 3-cycle, at star distance ≤ 4.  This realizes
// Corollary 5's pipeline with the same d = k·log₂k − Θ(k) bound (the
// paper cites Miller–Pritikin–Sudborough for dilation-O(1) with a
// slightly tighter constant).
func HypercubeIntoStar(k int) (*Embedding, error) {
	st, err := star.New(k)
	if err != nil {
		return nil, err
	}
	layout := newFactorBitLayout(k)
	q, err := topologies.NewHypercube(layout.total)
	if err != nil {
		return nil, err
	}
	host, err := st.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	return &Embedding{
		Name:   fmt.Sprintf("Q%d into %d-star", layout.total, k),
		Guest:  q,
		Host:   host,
		NodeOf: func(g int) int { return int(layout.permOf(g).Rank()) },
		PathOf: func(u, v int) ([]int, error) {
			pu, pv := layout.permOf(u), layout.permOf(v)
			return pathApply(pu, st.Route(pu, pv)), nil
		},
	}, nil
}

// HypercubeIntoTN embeds Q_d, d = StarDimBits(k), into the k-TN with
// dilation ≤ 2: one bit flip replaces one transposition factor, so
// the images differ by a conjugated 3-cycle — two TN arcs (one when
// the factor collapses to the identity).
func HypercubeIntoTN(k int) (*Embedding, error) {
	tn, err := topologies.NewTranspositionNetwork(k)
	if err != nil {
		return nil, err
	}
	layout := newFactorBitLayout(k)
	q, err := topologies.NewHypercube(layout.total)
	if err != nil {
		return nil, err
	}
	host, err := tn.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	return &Embedding{
		Name:   fmt.Sprintf("Q%d into %d-TN", layout.total, k),
		Guest:  q,
		Host:   host,
		NodeOf: func(g int) int { return int(layout.permOf(g).Rank()) },
		PathOf: func(u, v int) ([]int, error) {
			pu, pv := layout.permOf(u), layout.permOf(v)
			return pathApply(pu, tn.Route(pu, pv)), nil
		},
	}, nil
}

// FactorialMeshIntoStar embeds the 2×3×…×k mesh into the k-star with
// load 1, expansion 1 and dilation ≤ 3: a ±1 step in one mesh
// coordinate is a ±1 step in one Lehmer digit, i.e. one symbol
// transposition (Corollary 7's construction, after Jwo et al.).
func FactorialMeshIntoStar(k int) (*Embedding, error) {
	m, err := topologies.NewFactorialMesh(k)
	if err != nil {
		return nil, err
	}
	st, err := star.New(k)
	if err != nil {
		return nil, err
	}
	host, err := st.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	return &Embedding{
		Name:   fmt.Sprintf("%s into %d-star", m.Name(), k),
		Guest:  m,
		Host:   host,
		NodeOf: func(g int) int { return int(m.MeshToPerm(g).Rank()) },
		PathOf: func(u, v int) ([]int, error) {
			pu, pv := m.MeshToPerm(u), m.MeshToPerm(v)
			return pathApply(pu, st.Route(pu, pv)), nil
		},
	}, nil
}

// Mesh2DIntoStar embeds an m₁×m₂ mesh with m₁·m₂ = k! into the k-star
// with load 1, expansion 1 and dilation ≤ 3 (Corollary 6): the
// factorial mesh's coordinates are split into a row group (radices
// 2..split) and a column group (radices split+1..k), and each group is
// folded to a single axis with a reflected mixed-radix Gray code, so
// a ±1 row/column step changes exactly one factorial-mesh digit by ±1.
func Mesh2DIntoStar(k, split int) (*Embedding, error) {
	if split < 2 || split >= k {
		return nil, fmt.Errorf("embed: split %d out of range [2,%d)", split, k)
	}
	var rowRad, colRad []int
	for d := 2; d <= split; d++ {
		rowRad = append(rowRad, d)
	}
	for d := split + 1; d <= k; d++ {
		colRad = append(colRad, d)
	}
	rows, err := topologies.NewMixedGray(rowRad...)
	if err != nil {
		return nil, err
	}
	cols, err := topologies.NewMixedGray(colRad...)
	if err != nil {
		return nil, err
	}
	m2d, err := topologies.NewMesh(rows.Order(), cols.Order())
	if err != nil {
		return nil, err
	}
	fm, err := topologies.NewFactorialMesh(k)
	if err != nil {
		return nil, err
	}
	st, err := star.New(k)
	if err != nil {
		return nil, err
	}
	host, err := st.Cayley(maxEnumNodes)
	if err != nil {
		return nil, err
	}
	permAt := func(g int) perm.Perm {
		c := m2d.Coords(g)
		digits := append(rows.Digits(c[0]), cols.Digits(c[1])...)
		return fm.MeshToPerm(fm.ID(digits))
	}
	return &Embedding{
		Name:   fmt.Sprintf("%dx%d mesh into %d-star", rows.Order(), cols.Order(), k),
		Guest:  m2d,
		Host:   host,
		NodeOf: func(g int) int { return int(permAt(g).Rank()) },
		PathOf: func(u, v int) ([]int, error) {
			pu, pv := permAt(u), permAt(v)
			return pathApply(pu, st.Route(pu, pv)), nil
		},
	}, nil
}

// TreeIntoHypercube embeds the complete binary tree of height h into
// Q_(h+1) with dilation 2 via the inorder labeling.
func TreeIntoHypercube(h int) (*Embedding, error) {
	tr, err := topologies.NewCompleteBinaryTree(h)
	if err != nil {
		return nil, err
	}
	q, err := topologies.NewHypercube(h + 1)
	if err != nil {
		return nil, err
	}
	return &Embedding{
		Name:   fmt.Sprintf("CBT(%d) into Q%d", h, h+1),
		Guest:  tr,
		Host:   q,
		NodeOf: tr.Inorder,
		PathOf: func(u, v int) ([]int, error) {
			return hypercubePath(tr.Inorder(u), tr.Inorder(v)), nil
		},
	}, nil
}

// hypercubePath returns a shortest hypercube path flipping differing
// bits from lowest to highest.
func hypercubePath(a, b int) []int {
	path := []int{a}
	cur := a
	for bit := 0; cur != b; bit++ {
		if (cur^b)&(1<<uint(bit)) != 0 {
			cur ^= 1 << uint(bit)
			path = append(path, cur)
		}
	}
	return path
}

// TreeIntoStar embeds the tallest complete binary tree that fits the
// Lehmer-digit hypercube of the k-star: CBT(h) → Q_(h+1) (dilation 2)
// → k-star (dilation 3), for h = StarDimBits(k) − 1.  Composite
// dilation ≤ 6; the paper's Corollary 4 cites a dilation-1 tree→star
// construction giving height (1/2+o(1))·k·log₂k — the same Θ(k log k)
// height this pipeline achieves.
func TreeIntoStar(k int) (*Embedding, error) {
	h := StarDimBits(k) - 1
	t2q, err := TreeIntoHypercube(h)
	if err != nil {
		return nil, err
	}
	q2s, err := HypercubeIntoStar(k)
	if err != nil {
		return nil, err
	}
	e := Compose(t2q, q2s)
	e.Name = fmt.Sprintf("CBT(%d) into %d-star", h, k)
	return e, nil
}

// IntoNetwork chains any X→star embedding with the Theorem 1–3
// star→nw embedding, yielding X→nw (the paper's Corollary 4–7
// pipeline).  The X→star embedding must target the (nl+1)-star of nw.
func IntoNetwork(xToStar *Embedding, nw *core.Network) (*Embedding, error) {
	s2n, err := StarInto(nw)
	if err != nil {
		return nil, err
	}
	if xToStar.Host.Order() != s2n.Guest.Order() {
		return nil, fmt.Errorf("embed: host of %q has %d nodes, star of %s has %d",
			xToStar.Name, xToStar.Host.Order(), nw.Name(), s2n.Guest.Order())
	}
	e := Compose(xToStar, s2n)
	e.Name = fmt.Sprintf("%s into %s", xToStar.Name, nw.Name())
	return e, nil
}
