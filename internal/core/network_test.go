package core

import (
	"math/rand"
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/graph"
	"supercayley/internal/perm"
)

// small returns one small instance of every family (k = 5 for all, so
// exhaustive graph checks stay cheap).
func small(t *testing.T) []*Network {
	t.Helper()
	var nets []*Network
	for _, f := range Families {
		var nw *Network
		var err error
		if f == IS {
			nw, err = NewIS(5)
		} else {
			nw, err = New(f, 2, 2)
		}
		if err != nil {
			t.Fatalf("constructing %v: %v", f, err)
		}
		nets = append(nets, nw)
	}
	return nets
}

func TestFamilyStringsAndParse(t *testing.T) {
	for _, f := range Families {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFamily(%q) = %v, %v", f.String(), got, err)
		}
	}
	for _, alias := range []string{"crs", "CRIS", "macro-star", "is"} {
		if _, err := ParseFamily(alias); err != nil {
			t.Errorf("ParseFamily(%q): %v", alias, err)
		}
	}
	if _, err := ParseFamily("bogus"); err == nil {
		t.Error("ParseFamily(bogus) succeeded")
	}
}

func TestConstructionValidation(t *testing.T) {
	if _, err := New(MS, 1, 3); err == nil {
		t.Error("MS(1,3) accepted")
	}
	if _, err := New(MS, 3, 0); err == nil {
		t.Error("MS(3,0) accepted")
	}
	if _, err := New(IS, 2, 2); err == nil {
		t.Error("IS with two boxes accepted")
	}
	if _, err := NewIS(1); err == nil {
		t.Error("IS(1) accepted")
	}
	if _, err := New(MS, 7, 3); err == nil {
		t.Error("k=22 accepted")
	}
}

func TestNames(t *testing.T) {
	cases := map[string]*Network{
		"MS(4,3)":           MustNew(MS, 4, 3),
		"Complete-RS(3,2)":  MustNew(CompleteRS, 3, 2),
		"IS(6)":             mustIS(t, 6),
		"Complete-RIS(2,2)": MustNew(CompleteRIS, 2, 2),
	}
	for want, nw := range cases {
		if nw.Name() != want {
			t.Errorf("Name = %q, want %q", nw.Name(), want)
		}
	}
}

func mustIS(t *testing.T, k int) *Network {
	t.Helper()
	nw, err := NewIS(k)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestDegreeFormulas(t *testing.T) {
	cases := []struct {
		nw   *Network
		want int
	}{
		{MustNew(MS, 4, 3), 3 + 3}, // n + (l-1)
		{MustNew(MS, 2, 2), 2 + 1},
		{MustNew(RS, 4, 3), 3 + 2},         // n + 2 for l>2
		{MustNew(RS, 2, 3), 3 + 1},         // R = R⁻¹ when l=2
		{MustNew(CompleteRS, 4, 3), 3 + 3}, // n + (l-1)
		{MustNew(MR, 3, 2), 2 + 2},
		{MustNew(RR, 3, 2), 2 + 1},
		{MustNew(CompleteRR, 4, 2), 2 + 3},
		{mustIS(t, 6), 2 * 5}, // 2(k-1), parallel I2/I2'
		{mustIS(t, 2), 2},
		{MustNew(MIS, 3, 3), 2*3 + 2}, // 2n + (l-1)
		{MustNew(MIS, 3, 1), 2 + 2},
		{MustNew(RIS, 4, 2), 2*2 + 2},
		{MustNew(RIS, 2, 2), 2*2 + 1},
		{MustNew(CompleteRIS, 4, 2), 2*2 + 3},
	}
	for _, c := range cases {
		if c.nw.Degree() != c.want {
			t.Errorf("%s degree = %d, want %d", c.nw.Name(), c.nw.Degree(), c.want)
		}
	}
}

func TestBasicParams(t *testing.T) {
	nw := MustNew(MS, 4, 3)
	if nw.K() != 13 || nw.L() != 4 || nw.BoxSize() != 3 {
		t.Fatalf("params wrong: k=%d l=%d n=%d", nw.K(), nw.L(), nw.BoxSize())
	}
	if nw.N() != perm.Factorial(13) {
		t.Fatalf("N = %d", nw.N())
	}
	if nw.Star().N() != perm.Factorial(13) {
		t.Fatal("emulated star has wrong k")
	}
}

func TestDirectedness(t *testing.T) {
	for _, nw := range small(t) {
		if nw.Directed() != nw.Family().Directed() {
			t.Errorf("%s: set closure %v disagrees with family directedness %v",
				nw.Name(), !nw.Directed(), nw.Family().Directed())
		}
	}
}

func TestSplitJoinDim(t *testing.T) {
	nw := MustNew(MS, 4, 3) // k=13
	for j := 2; j <= 13; j++ {
		j0, j1 := nw.SplitDim(j)
		if j0 < 0 || j0 >= 3 || j1 < 0 || j1 >= 4 {
			t.Fatalf("SplitDim(%d) = (%d,%d) out of range", j, j0, j1)
		}
		if nw.JoinDim(j0, j1) != j {
			t.Fatalf("JoinDim(SplitDim(%d)) = %d", j, nw.JoinDim(j0, j1))
		}
	}
	// Paper example: dimension j in block j1+1 at offset j0.
	if j0, j1 := nw.SplitDim(5); j0 != 0 || j1 != 1 {
		t.Fatalf("SplitDim(5) = (%d,%d), want (0,1)", j0, j1)
	}
}

func TestBringBoxBringsBox(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, f := range Families {
		if f == IS {
			continue
		}
		for _, cfg := range []struct{ l, n int }{{2, 2}, {3, 2}, {4, 1}} {
			nw := MustNew(f, cfg.l, cfg.n)
			for i := 2; i <= nw.L(); i++ {
				p := perm.Random(r, nw.K())
				cur := p.Clone()
				for _, g := range nw.BringBox(i) {
					if g.Class() != gens.Super {
						t.Fatalf("%s BringBox(%d) uses nucleus generator %s", nw.Name(), i, g.Name())
					}
					cur = g.Apply(cur)
				}
				// Box i of p must now occupy box position 1.
				n := nw.BoxSize()
				for m := 0; m < n; m++ {
					if cur[1+m] != p[(i-1)*n+1+m] {
						t.Fatalf("%s BringBox(%d): %v -> %v (box not front)", nw.Name(), i, p, cur)
					}
				}
				// ReturnBox must undo it.
				for _, g := range nw.ReturnBox(i) {
					cur = g.Apply(cur)
				}
				if !cur.Equal(p) {
					t.Fatalf("%s ReturnBox(%d) did not restore: %v -> %v", nw.Name(), i, p, cur)
				}
			}
		}
	}
}

func TestEmulateStarDimExact(t *testing.T) {
	// Applying the expansion of dimension j must equal applying the
	// star generator T_j, for every family, every dimension, random
	// nodes.  This is the correctness core of Theorems 1, 2, 3 and 5.
	r := rand.New(rand.NewSource(2))
	configs := []struct{ l, n int }{{2, 2}, {3, 2}, {2, 3}, {4, 1}}
	for _, f := range Families {
		var nets []*Network
		if f == IS {
			nets = []*Network{mustIS(t, 5), mustIS(t, 7)}
		} else {
			for _, c := range configs {
				nets = append(nets, MustNew(f, c.l, c.n))
			}
		}
		for _, nw := range nets {
			for j := 2; j <= nw.K(); j++ {
				seq := nw.EmulateStarDim(j)
				tj := gens.Transposition(nw.K(), j)
				for trial := 0; trial < 5; trial++ {
					p := perm.Random(r, nw.K())
					cur := p.Clone()
					for _, g := range seq {
						cur = g.Apply(cur)
					}
					if !cur.Equal(tj.Apply(p)) {
						t.Fatalf("%s dim %d: expansion %v != T%d", nw.Name(), j, names(seq), j)
					}
				}
				// Every generator in the expansion must belong to the set.
				for _, g := range seq {
					if nw.Set().IndexOfAction(g) < 0 {
						t.Fatalf("%s dim %d: expansion uses foreign generator %s", nw.Name(), j, g.Name())
					}
				}
			}
		}
	}
}

func names(gs []gens.Generator) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Name()
	}
	return out
}

func TestTheoremDilations(t *testing.T) {
	// Theorem 1: MS and Complete-RS embed the star with dilation 3.
	// Theorem 2: IS with dilation 2.
	// Theorem 3: MIS and Complete-RIS with dilation 4.
	cases := []struct {
		nw   *Network
		want int
	}{
		{MustNew(MS, 4, 3), 3},
		{MustNew(MS, 2, 2), 3},
		{MustNew(CompleteRS, 4, 3), 3},
		{MustNew(CompleteRS, 3, 2), 3},
		{mustIS(t, 13), 2},
		{mustIS(t, 5), 2},
		{MustNew(MIS, 4, 3), 4},
		{MustNew(CompleteRIS, 4, 3), 4},
	}
	for _, c := range cases {
		if got := c.nw.MaxDilation(); got != c.want {
			t.Errorf("%s MaxDilation = %d, want %d", c.nw.Name(), got, c.want)
		}
	}
}

func TestRotationFamilyDilationBounds(t *testing.T) {
	// RS uses repeated single rotations: dilation 2⌊l/2⌋+1.
	if got := MustNew(RS, 5, 2).MaxDilation(); got != 2*2+1 {
		t.Errorf("RS(5,2) dilation = %d, want 5", got)
	}
	// RR is directed: B via forward rotations only, nucleus inverse by
	// powers.
	nw := MustNew(RR, 3, 2)
	if got := nw.MaxDilation(); got > 2*nw.L()+nw.BoxSize() {
		t.Errorf("RR(3,2) dilation = %d suspiciously large", got)
	}
}

func TestRouteReachesDestinationAllFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, nw := range small(t) {
		for trial := 0; trial < 100; trial++ {
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			cur := u.Clone()
			for _, g := range nw.Route(u, v) {
				cur = g.Apply(cur)
			}
			if !cur.Equal(v) {
				t.Fatalf("%s: route from %v to %v ended at %v", nw.Name(), u, v, cur)
			}
		}
	}
}

func TestRouteLengthBound(t *testing.T) {
	// Route length ≤ MaxDilation · starDistance (Theorems 1–3 give the
	// emulation slowdown as exactly this constant).
	r := rand.New(rand.NewSource(4))
	for _, nw := range small(t) {
		dil := nw.MaxDilation()
		for trial := 0; trial < 100; trial++ {
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			starDist := nw.Star().Distance(u, v)
			if got := len(nw.Route(u, v)); got > dil*starDist {
				t.Fatalf("%s: route %d > %d × starDist %d", nw.Name(), got, dil, starDist)
			}
		}
	}
}

// TestPathIsWalkInGraph walks each route through the enumerated
// Cayley view: every hop must be an arc of the graph, and the walk
// must end at the destination.
func TestPathIsWalkInGraph(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, nw := range small(t) {
		cg, err := nw.Cayley(200)
		if err != nil {
			t.Fatal(err)
		}
		u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
		cur := u.Clone()
		for i, g := range nw.Route(u, v) {
			next := g.Apply(cur)
			ok := false
			for _, w := range cg.Neighbors(int(cur.Rank())) {
				if w == int(next.Rank()) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s: path step %d not an arc", nw.Name(), i+1)
			}
			cur = next
		}
		if !cur.Equal(v) {
			t.Fatalf("%s path ends at %v, want %v", nw.Name(), cur, v)
		}
	}
}

func TestGraphStructureAllFamilies(t *testing.T) {
	// §2: every super Cayley graph is regular and vertex-symmetric.
	for _, nw := range small(t) {
		cg, err := nw.Cayley(200)
		if err != nil {
			t.Fatal(err)
		}
		mat := graph.Materialize(cg)
		for v := 0; v < mat.Order(); v++ {
			if d := len(mat.Neighbors(v)); d != nw.Degree() {
				t.Errorf("%s: node %d has degree %d, want %d", nw.Name(), v, d, nw.Degree())
				break
			}
		}
		if got := graph.IsUndirected(mat); got == nw.Directed() {
			t.Errorf("%s: undirected=%v but Directed()=%v", nw.Name(), got, nw.Directed())
		}
		// Connected: the generator set must generate all of S_k.
		if s := graph.StatsFrom(mat, 0); !s.Connected {
			t.Errorf("%s: not connected (reached %d of %d)", nw.Name(), s.Reached, mat.Order())
		}
		if !graph.LooksVertexSymmetric(mat, 10) {
			t.Errorf("%s: failed vertex-symmetry profile check", nw.Name())
		}
	}
}

func TestDirectedFamiliesStronglyConnected(t *testing.T) {
	// MR/RR/Complete-RR lack inverse generators, but their state
	// graphs must still be strongly connected (any configuration of
	// the ball-arrangement game is solvable with forward moves only).
	for _, f := range []Family{MR, RR, CompleteRR} {
		nw := MustNew(f, 2, 2)
		cg, err := nw.Cayley(200)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.NewCSRFromCayley(cg).SurvivorStatsUnder(nil, nil).Connected {
			t.Errorf("%s is not strongly connected", nw.Name())
		}
	}
}

func TestDiameterAtLeastUniversalLowerBound(t *testing.T) {
	for _, nw := range small(t) {
		cg, err := nw.Cayley(200)
		if err != nil {
			t.Fatal(err)
		}
		s := graph.NewCSRFromCayley(cg).Stats(0) // vertex-symmetric ⇒ ecc = diameter
		if !s.Connected {
			t.Fatalf("%s disconnected", nw.Name())
		}
		diam := s.Ecc
		lb := graph.DiameterLowerBound(nw.Degree(), nw.N())
		if diam < lb {
			t.Errorf("%s: diameter %d below universal bound %d", nw.Name(), diam, lb)
		}
	}
}

func TestNeighborsMatchCayleyView(t *testing.T) {
	nw := MustNew(MS, 2, 2)
	cg, err := nw.Cayley(200)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		p := perm.Random(r, 5)
		ids := cg.Neighbors(int(p.Rank()))
		if len(ids) != nw.Set().Len() {
			t.Fatal("neighbor count mismatch")
		}
		for i, id := range ids {
			if want := nw.Set().At(i).Apply(p).Rank(); id != int(want) {
				t.Fatalf("neighbor %d mismatch", i)
			}
		}
	}
}

func TestNucleusTranspositionOnlyTouchesNucleus(t *testing.T) {
	// Nucleus expansions must not move symbols outside positions
	// 1..n+1.
	r := rand.New(rand.NewSource(7))
	for _, nw := range small(t) {
		n := nw.BoxSize()
		if nw.Family() == IS {
			continue // single box: the whole graph is nucleus
		}
		for m := 2; m <= n+1; m++ {
			p := perm.Random(r, nw.K())
			cur := p.Clone()
			for _, g := range nw.NucleusTransposition(m) {
				cur = g.Apply(cur)
			}
			for i := n + 1; i < nw.K(); i++ {
				if cur[i] != p[i] {
					t.Fatalf("%s: nucleus T%d touched position %d", nw.Name(), m, i+1)
				}
			}
		}
	}
}
