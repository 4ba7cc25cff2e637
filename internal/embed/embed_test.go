package embed

import (
	"fmt"
	"math/rand"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/topologies"
)

func mustIS(t *testing.T, k int) *core.Network {
	t.Helper()
	nw, err := core.NewIS(k)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func measure(t *testing.T, f func() (*Embedding, error)) Metrics {
	t.Helper()
	e, err := f()
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Measure()
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return m
}

func TestStarIntoTheoremDilations(t *testing.T) {
	// Theorem 1: dilation 3 into MS / Complete-RS.
	// Theorem 2: dilation 2 into IS, congestion 1.
	// Theorem 3: dilation 4 into MIS / Complete-RIS.
	cases := []struct {
		nw             *core.Network
		wantDil        int
		wantCongestion int // 0 = don't check
	}{
		{core.MustNew(core.MS, 2, 2), 3, 0},
		{core.MustNew(core.CompleteRS, 2, 2), 3, 0},
		{core.MustNew(core.MS, 3, 2), 3, 0},
		{core.MustNew(core.CompleteRS, 3, 2), 3, 0},
		{mustIS(t, 5), 2, 1},
		{mustIS(t, 6), 2, 1},
		{core.MustNew(core.MIS, 2, 2), 4, 0},
		{core.MustNew(core.CompleteRIS, 2, 2), 4, 0},
	}
	for _, c := range cases {
		m := measure(t, func() (*Embedding, error) { return StarInto(c.nw) })
		if m.Load != 1 || m.Expansion != 1 {
			t.Errorf("star into %s: load=%d expansion=%f, want 1/1", c.nw.Name(), m.Load, m.Expansion)
		}
		if m.Dilation != c.wantDil {
			t.Errorf("star into %s: dilation=%d, want %d", c.nw.Name(), m.Dilation, c.wantDil)
		}
		if c.wantCongestion > 0 && m.Congestion != c.wantCongestion {
			t.Errorf("star into %s: congestion=%d, want %d", c.nw.Name(), m.Congestion, c.wantCongestion)
		}
	}
}

func TestStarIntoMSCongestionFormula(t *testing.T) {
	// Paper: congestion of the star embedding in MS / Complete-RS /
	// MIS / Complete-RIS equals max(2n, l).
	cases := []*core.Network{
		core.MustNew(core.MS, 2, 2),
		core.MustNew(core.MS, 3, 2),
		core.MustNew(core.CompleteRS, 3, 2),
		core.MustNew(core.MIS, 3, 2),
		core.MustNew(core.CompleteRIS, 3, 2),
	}
	for _, nw := range cases {
		m := measure(t, func() (*Embedding, error) { return StarInto(nw) })
		want := 2 * nw.BoxSize()
		if nw.L() > want {
			want = nw.L()
		}
		if m.Congestion != want {
			t.Errorf("star into %s: congestion=%d, want max(2n,l)=%d", nw.Name(), m.Congestion, want)
		}
	}
}

func TestStarIntoPerDimensionCongestion(t *testing.T) {
	// Paper: per-dimension congestion in MS is 2 for i > n+1 and 1
	// otherwise.
	nw := core.MustNew(core.MS, 3, 2)
	e, err := StarInto(nw)
	if err != nil {
		t.Fatal(err)
	}
	k, n := nw.K(), nw.BoxSize()
	for dim := 2; dim <= k; dim++ {
		dim := dim
		m, err := e.MeasureArcs(func(u, v int) bool {
			j, err := starArcDim(perm.Unrank(k, int64(u)), perm.Unrank(k, int64(v)))
			return err == nil && j == dim
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if dim > n+1 {
			want = 2
		}
		if m.Congestion != want {
			t.Errorf("dimension %d congestion = %d, want %d", dim, m.Congestion, want)
		}
	}
}

func TestTNSequenceRealizesTransposition(t *testing.T) {
	// Every TNSequence must act exactly as Tᵢⱼ, for every family and
	// pair.
	r := rand.New(rand.NewSource(1))
	nets := []*core.Network{
		core.MustNew(core.MS, 2, 2),
		core.MustNew(core.MS, 3, 2),
		core.MustNew(core.CompleteRS, 3, 2),
		core.MustNew(core.RS, 3, 2),
		core.MustNew(core.MIS, 3, 2),
		core.MustNew(core.RIS, 3, 2),
		core.MustNew(core.CompleteRIS, 2, 3),
		core.MustNew(core.MR, 3, 2),
		core.MustNew(core.RR, 2, 3),
		core.MustNew(core.CompleteRR, 3, 2),
		mustIS(t, 7),
	}
	for _, nw := range nets {
		k := nw.K()
		for i := 1; i < k; i++ {
			for j := i + 1; j <= k; j++ {
				seq, err := TNSequence(nw, i, j)
				if err != nil {
					t.Fatalf("%s T%d,%d: %v", nw.Name(), i, j, err)
				}
				want := gens.TranspositionIJ(k, i, j)
				for trial := 0; trial < 3; trial++ {
					p := perm.Random(r, k)
					cur := p.Clone()
					for _, g := range seq {
						cur = g.Apply(cur)
					}
					if !cur.Equal(want.Apply(p)) {
						t.Fatalf("%s: TNSequence(%d,%d) wrong action", nw.Name(), i, j)
					}
				}
				for _, g := range seq {
					if nw.Set().IndexOfAction(g) < 0 {
						t.Fatalf("%s: TNSequence(%d,%d) uses foreign generator %s", nw.Name(), i, j, g.Name())
					}
				}
			}
		}
	}
}

func TestTNSequenceRejectsBadPairs(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	for _, pair := range [][2]int{{0, 3}, {3, 3}, {2, 9}, {3, 2}} {
		if _, err := TNSequence(nw, pair[0], pair[1]); err == nil {
			t.Errorf("TNSequence(%d,%d) accepted", pair[0], pair[1])
		}
	}
}

func TestTheorem6TNIntoMS(t *testing.T) {
	// k-TN into MS/Complete-RS: load 1, expansion 1, dilation 5 when
	// l=2 and 7 when l≥3.
	cases := []struct {
		nw      *core.Network
		wantDil int
	}{
		{core.MustNew(core.MS, 2, 2), 5},
		{core.MustNew(core.CompleteRS, 2, 2), 5},
		{core.MustNew(core.MS, 3, 2), 7},
		{core.MustNew(core.CompleteRS, 3, 2), 7},
	}
	for _, c := range cases {
		m := measure(t, func() (*Embedding, error) { return TNInto(c.nw) })
		if m.Load != 1 || m.Expansion != 1 {
			t.Errorf("TN into %s: load=%d expansion=%f", c.nw.Name(), m.Load, m.Expansion)
		}
		if m.Dilation != c.wantDil {
			t.Errorf("TN into %s: dilation=%d, want %d", c.nw.Name(), m.Dilation, c.wantDil)
		}
	}
}

func TestTheorem7TNIntoISFamilies(t *testing.T) {
	// k-TN into k-IS: dilation 6; into MIS/Complete-RIS: dilation O(1)
	// (≤ 10 with the 2-step nucleus and 1-step supers).
	m := measure(t, func() (*Embedding, error) { return TNInto(mustIS(t, 5)) })
	if m.Dilation != 6 || m.Load != 1 || m.Expansion != 1 {
		t.Errorf("TN into IS(5): %v, want dilation 6 load 1", m)
	}
	for _, nw := range []*core.Network{
		core.MustNew(core.MIS, 2, 2),
		core.MustNew(core.MIS, 3, 2),
		core.MustNew(core.CompleteRIS, 3, 2),
	} {
		m := measure(t, func() (*Embedding, error) { return TNInto(nw) })
		if m.Load != 1 || m.Expansion != 1 {
			t.Errorf("TN into %s: load/expansion wrong: %v", nw.Name(), m)
		}
		if m.Dilation > 10 {
			t.Errorf("TN into %s: dilation %d not O(1)-small", nw.Name(), m.Dilation)
		}
	}
}

func TestBubbleSortIntoNetworks(t *testing.T) {
	// Bubble-sort graph is a TN subgraph; its embedding inherits the
	// TN dilations.
	m := measure(t, func() (*Embedding, error) { return BubbleSortInto(core.MustNew(core.MS, 2, 2)) })
	if m.Dilation > 5 || m.Load != 1 {
		t.Errorf("bubble into MS(2,2): %v", m)
	}
	m = measure(t, func() (*Embedding, error) { return BubbleSortInto(mustIS(t, 5)) })
	if m.Dilation > 6 || m.Load != 1 {
		t.Errorf("bubble into IS(5): %v", m)
	}
}

func TestHypercubeIntoTNDilation2(t *testing.T) {
	// The transposition-factorization construction: Q_d → k-TN with
	// dilation ≤ 2 (a bit flip is a conjugated 3-cycle).
	for k := 4; k <= 6; k++ {
		m := measure(t, func() (*Embedding, error) { return HypercubeIntoTN(k) })
		if m.Dilation > 2 {
			t.Errorf("Q into %d-TN: dilation %d, want ≤ 2", k, m.Dilation)
		}
		if m.Load != 1 {
			t.Errorf("Q into %d-TN: load %d", k, m.Load)
		}
	}
}

func TestCorollary5HypercubeIntoStar(t *testing.T) {
	// Q_d → k-star with dilation ≤ 4 and d = k log₂k − Θ(k).
	for k := 4; k <= 6; k++ {
		m := measure(t, func() (*Embedding, error) { return HypercubeIntoStar(k) })
		if m.Dilation > 4 {
			t.Errorf("Q into %d-star: dilation %d > 4", k, m.Dilation)
		}
		if m.Load != 1 {
			t.Errorf("Q into %d-star: load %d", k, m.Load)
		}
	}
	// Dimension count: Σ⌊log₂ m⌋ for m=2..k.
	if StarDimBits(5) != 1+1+2+2 {
		t.Errorf("StarDimBits(5) = %d, want 6", StarDimBits(5))
	}
	if StarDimBits(7) != 1+1+2+2+2+2 {
		t.Errorf("StarDimBits(7) = %d, want 10", StarDimBits(7))
	}
}

func TestCorollary5IntoSuperCayley(t *testing.T) {
	// Full pipeline: Q_d → star → MS(2,2), constant dilation ≤ 3·3.
	nw := core.MustNew(core.MS, 2, 2)
	q2s, err := HypercubeIntoStar(5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := IntoNetwork(q2s, nw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m.Dilation > 12 {
		t.Errorf("Q into MS(2,2): dilation %d > 12", m.Dilation)
	}
	if m.Load != 1 {
		t.Errorf("Q into MS(2,2): load %d", m.Load)
	}
}

func TestCorollary7FactorialMeshIntoStar(t *testing.T) {
	for k := 4; k <= 6; k++ {
		m := measure(t, func() (*Embedding, error) { return FactorialMeshIntoStar(k) })
		if m.Load != 1 || m.Expansion != 1 {
			t.Errorf("factorial mesh into %d-star: load=%d expansion=%f", k, m.Load, m.Expansion)
		}
		if m.Dilation > 3 {
			t.Errorf("factorial mesh into %d-star: dilation %d > 3", k, m.Dilation)
		}
	}
}

func TestCorollary7IntoSuperCayley(t *testing.T) {
	// 2×3×…×k mesh into MS and IS with load 1, expansion 1, O(1)
	// dilation.
	for _, nw := range []*core.Network{core.MustNew(core.MS, 2, 2), mustIS(t, 5)} {
		f2s, err := FactorialMeshIntoStar(5)
		if err != nil {
			t.Fatal(err)
		}
		e, err := IntoNetwork(f2s, nw)
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Measure()
		if err != nil {
			t.Fatal(err)
		}
		if m.Load != 1 || m.Expansion != 1 || m.Dilation > 3*4 {
			t.Errorf("factorial mesh into %s: %v", nw.Name(), m)
		}
	}
}

func TestCorollary6Mesh2DIntoStar(t *testing.T) {
	// m₁×m₂ mesh with m₁m₂ = k! into k-star: load 1, expansion 1,
	// dilation ≤ 3.
	for _, split := range []int{2, 3, 4} {
		m := measure(t, func() (*Embedding, error) { return Mesh2DIntoStar(5, split) })
		if m.Load != 1 || m.Expansion != 1 {
			t.Errorf("2D mesh split=%d: load=%d expansion=%f", split, m.Load, m.Expansion)
		}
		if m.Dilation > 3 {
			t.Errorf("2D mesh split=%d: dilation %d > 3", split, m.Dilation)
		}
	}
	if _, err := Mesh2DIntoStar(5, 1); err == nil {
		t.Error("bad split accepted")
	}
	if _, err := Mesh2DIntoStar(5, 5); err == nil {
		t.Error("bad split accepted")
	}
}

func TestCorollary4TreeEmbeddings(t *testing.T) {
	// CBT → hypercube (dilation 2, inorder) and the full chain into
	// the star and an SCG.
	m := measure(t, func() (*Embedding, error) { return TreeIntoHypercube(4) })
	if m.Dilation != 2 || m.Load != 1 {
		t.Errorf("tree into hypercube: %v", m)
	}
	m = measure(t, func() (*Embedding, error) { return TreeIntoStar(5) })
	if m.Dilation > 8 || m.Load != 1 {
		t.Errorf("tree into star: %v (want dilation ≤ 2·4)", m)
	}
	// Chain into IS(5): total dilation ≤ 6·2.
	t2s, err := TreeIntoStar(5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := IntoNetwork(t2s, mustIS(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := e.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if mm.Dilation > 16 || mm.Load != 1 {
		t.Errorf("tree into IS(5): %v", mm)
	}
}

func TestComposeValidatesSizes(t *testing.T) {
	t2q, err := TreeIntoHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IntoNetwork(t2q, core.MustNew(core.MS, 2, 2)); err == nil {
		t.Error("IntoNetwork accepted mismatched sizes")
	}
}

func TestMeasureDetectsBrokenPaths(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	e, err := StarInto(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the path function: skip intermediate hops.
	e.SeqOf = nil // force node-path measurement
	e.PathOf = func(u, v int) ([]int, error) {
		return []int{u, v}, nil
	}
	if _, err := e.Measure(); err == nil {
		t.Error("Measure accepted teleporting paths")
	}
	// Corrupt endpoints.
	e.PathOf = func(u, v int) ([]int, error) { return []int{u}, nil }
	if _, err := e.Measure(); err == nil {
		t.Error("Measure accepted wrong endpoints")
	}
}

func TestMeasureSeqDetectsBrokenSequences(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	e, err := StarInto(nw)
	if err != nil {
		t.Fatal(err)
	}
	// A sequence ending at the wrong node must be rejected.
	e.SeqOf = func(u, v int) (perm.Perm, []gens.Generator, error) {
		return perm.Unrank(5, int64(u)), nil, nil
	}
	if _, err := e.Measure(); err == nil {
		t.Error("Measure accepted empty sequences")
	}
	// A sequence using a generator outside the host set must be
	// rejected.
	e.SeqOf = func(u, v int) (perm.Perm, []gens.Generator, error) {
		pu := perm.Unrank(5, int64(u))
		pv := perm.Unrank(5, int64(v))
		j, err := starArcDim(pu, pv)
		if err != nil {
			return nil, nil, err
		}
		return pu, []gens.Generator{gens.Transposition(5, j)}, nil
	}
	if _, err := e.Measure(); err == nil {
		t.Error("Measure accepted foreign generators (T4/T5 are not MS(2,2) links)")
	}
}

func TestMixedGrayProperties(t *testing.T) {
	g, err := topologies.NewMixedGray(2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != 120 {
		t.Fatalf("order %d", g.Order())
	}
	prev := g.Digits(0)
	for x := 1; x < g.Order(); x++ {
		cur := g.Digits(x)
		diff := 0
		for i := range cur {
			d := cur[i] - prev[i]
			if d != 0 {
				diff++
				if d != 1 && d != -1 {
					t.Fatalf("digit %d jumped by %d at x=%d", i, d, x)
				}
			}
		}
		if diff != 1 {
			t.Fatalf("x=%d: %d digits changed", x, diff)
		}
		prev = cur
	}
	// Digits is a bijection: no tuple repeats.
	seen := map[string]bool{}
	for x := 0; x < g.Order(); x++ {
		key := fmt.Sprint(g.Digits(x))
		if seen[key] {
			t.Fatalf("digits of %d repeat an earlier index", x)
		}
		seen[key] = true
	}
}
