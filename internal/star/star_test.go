package star

import (
	"math/rand"
	"testing"

	"supercayley/internal/graph"
	"supercayley/internal/perm"
)

// newStar is New for tests.
func newStar(tb testing.TB, k int) *Graph {
	tb.Helper()
	g, err := New(k)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("New(1) accepted")
	}
	if _, err := New(perm.MaxK + 1); err == nil {
		t.Error("New(21) accepted")
	}
	g := newStar(t, 5)
	if g.N() != 120 || g.Degree() != 4 {
		t.Fatalf("5-star params wrong: N=%d deg=%d", g.N(), g.Degree())
	}
	if g.Name() != "5-star" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestNeighborsCount(t *testing.T) {
	g := newStar(t, 6)
	cg, err := g.Cayley(0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		p := int(perm.Random(r, 6).Rank())
		nbrs := cg.Neighbors(p)
		if len(nbrs) != 5 {
			t.Fatalf("degree %d", len(nbrs))
		}
		seen := map[int]bool{}
		for _, q := range nbrs {
			if seen[q] {
				t.Fatalf("duplicate neighbor %d of %d", q, p)
			}
			seen[q] = true
			if q == p {
				t.Fatalf("self loop at %d", p)
			}
		}
	}
}

func TestSortToIdentityOptimal(t *testing.T) {
	// The greedy cycle algorithm must achieve the closed-form
	// distance exactly, for every permutation of k ≤ 7.
	for k := 2; k <= 7; k++ {
		g := newStar(t, k)
		perm.All(k, func(p perm.Perm) bool {
			seq := g.SortToIdentity(p)
			if len(seq) != p.StarDistance() {
				t.Fatalf("k=%d %v: greedy %d moves, distance %d", k, p, len(seq), p.StarDistance())
			}
			cur := p.Clone()
			for _, gen := range seq {
				cur = gen.Apply(cur)
			}
			if !cur.IsIdentity() {
				t.Fatalf("k=%d %v: sort did not reach identity (got %v)", k, p, cur)
			}
			return true
		})
	}
}

func TestRouteReachesDestination(t *testing.T) {
	g := newStar(t, 8)
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		u, v := perm.Random(r, 8), perm.Random(r, 8)
		seq := g.Route(u, v)
		if len(seq) != g.Distance(u, v) {
			t.Fatalf("route length %d != distance %d", len(seq), g.Distance(u, v))
		}
		cur := u.Clone()
		for _, gen := range seq {
			cur = gen.Apply(cur)
		}
		if !cur.Equal(v) {
			t.Fatalf("route from %v to %v ended at %v", u, v, cur)
		}
	}
}

// TestPathEndpoints walks each route through the enumerated Cayley
// view: every hop must be an edge, and the walk must end at v.
func TestPathEndpoints(t *testing.T) {
	g := newStar(t, 6)
	cg, err := g.Cayley(0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		u, v := perm.Random(r, 6), perm.Random(r, 6)
		cur := u.Clone()
		for i, gen := range g.Route(u, v) {
			next := gen.Apply(cur)
			adjacent := false
			for _, q := range cg.Neighbors(int(cur.Rank())) {
				if q == int(next.Rank()) {
					adjacent = true
					break
				}
			}
			if !adjacent {
				t.Fatalf("path step %d not an edge: %v -> %v", i+1, cur, next)
			}
			cur = next
		}
		if !cur.Equal(v) {
			t.Fatalf("path from %v ends at %v, want %v", u, cur, v)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	g := newStar(t, 7)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		u, v := perm.Random(r, 7), perm.Random(r, 7)
		if g.Distance(u, v) != g.Distance(v, u) {
			t.Fatalf("distance asymmetric for %v %v", u, v)
		}
	}
}

func TestGenPanics(t *testing.T) {
	g := newStar(t, 5)
	for _, j := range []int{1, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gen(%d) did not panic", j)
				}
			}()
			g.Gen(j)
		}()
	}
	if g.Gen(3).Dim() != 3 {
		t.Fatal("Gen(3) wrong dimension")
	}
}

func TestCayleyViewProperties(t *testing.T) {
	g := newStar(t, 5)
	cg, err := g.Cayley(200)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Order() != 120 {
		t.Fatalf("order %d", cg.Order())
	}
	mat := graph.Materialize(cg)
	for v := 0; v < mat.Order(); v++ {
		if d := len(mat.Neighbors(v)); d != 4 {
			t.Fatalf("node %d has degree %d, want 4", v, d)
		}
	}
	if !graph.IsUndirected(mat) {
		t.Fatal("star graph should be undirected")
	}
	if diam := graph.StatsFrom(mat, 0).Ecc; diam != perm.StarDiameter(5) {
		t.Fatalf("diameter %d, want %d", diam, perm.StarDiameter(5))
	}
	if !graph.LooksVertexSymmetric(mat, 12) {
		t.Fatal("star graph failed vertex-symmetry profile check")
	}
	// Size limit honored.
	if _, err := g.Cayley(10); err == nil {
		t.Fatal("Cayley(10) should refuse 120-node graph")
	}
}

func TestStarEdgesConnectPermsDifferingByFirstSymbolSwap(t *testing.T) {
	// Structural definition check: u ~ v iff v equals u with
	// positions 1 and i exchanged for some i ≥ 2.
	g := newStar(t, 5)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		u := perm.Random(r, 5)
		for i := 0; i < g.Set().Len(); i++ {
			v := g.Set().At(i).Apply(u)
			diff := 0
			for i := range u {
				if u[i] != v[i] {
					diff++
				}
			}
			if diff != 2 || u[0] == v[0] {
				t.Fatalf("star edge %v ~ %v malformed", u, v)
			}
		}
	}
}
