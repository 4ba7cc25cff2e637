package topologies

import (
	"math/bits"
	"math/rand"
	"testing"

	"supercayley/internal/graph"
	"supercayley/internal/perm"
)

// must returns v, panicking on err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestHypercubeBasics(t *testing.T) {
	h := must(NewHypercube(4))
	if h.Order() != 16 || h.Name() != "Q4" {
		t.Fatalf("Q4 params wrong")
	}
	if _, err := NewHypercube(-1); err == nil {
		t.Error("Q(-1) accepted")
	}
	if _, err := NewHypercube(31); err == nil {
		t.Error("Q31 accepted")
	}
	mat := graph.Materialize(h)
	if !graph.IsUndirected(mat) || !graph.LooksVertexSymmetric(mat, 8) {
		t.Fatal("Q4 structure wrong")
	}
	// Vertex-symmetric, so the eccentricity of node 0 is the diameter.
	if d := graph.StatsFrom(mat, 0).Ecc; d != 4 {
		t.Fatalf("BFS diameter %d", d)
	}
}

// TestGrayCode checks the mixed-radix Gray code over radix 2 against
// the reflected binary Gray code i ^ (i >> 1).
func TestGrayCode(t *testing.T) {
	g := must(NewMixedGray(2, 2, 2, 2, 2, 2, 2, 2))
	for i := 0; i < g.Order(); i++ {
		word := 0
		for b, d := range g.Digits(i) {
			word |= d << b
		}
		if want := i ^ (i >> 1); word != want {
			t.Fatalf("Gray word %d = %b, want %b", i, word, want)
		}
	}
}

func TestMeshBasics(t *testing.T) {
	m := must(NewMesh(3, 4, 2))
	if m.Order() != 24 {
		t.Fatalf("mesh order %d", m.Order())
	}
	if m.Name() != "mesh(3x4x2)" {
		t.Fatalf("name %q", m.Name())
	}
	if _, err := NewMesh(); err == nil {
		t.Error("empty mesh accepted")
	}
	if _, err := NewMesh(0); err == nil {
		t.Error("zero-size mesh accepted")
	}
	// Coords/ID round trip.
	for v := 0; v < m.Order(); v++ {
		if m.ID(m.Coords(v)) != v {
			t.Fatalf("coords round-trip failed for %d", v)
		}
	}
	// BFS from the corner 0 reaches each node at the sum of its
	// coordinates (its L1 distance).
	dist := graph.BFS(m, 0)
	for v := 0; v < m.Order(); v++ {
		l1 := 0
		for _, c := range m.Coords(v) {
			l1 += c
		}
		if dist[v] != l1 {
			t.Fatalf("distance mismatch at %d: BFS %d, L1 %d", v, dist[v], l1)
		}
	}
}

func TestMeshNeighborsSymmetric(t *testing.T) {
	m := must(NewMesh(4, 3))
	mat := graph.Materialize(m)
	if !graph.IsUndirected(mat) {
		t.Fatal("mesh should be undirected")
	}
	// Corner has 2 neighbors, center has 4.
	if len(mat.Neighbors(0)) != 2 {
		t.Fatal("corner degree wrong")
	}
	if len(mat.Neighbors(m.ID([]int{1, 1}))) != 4 {
		t.Fatal("center degree wrong")
	}
}

func TestFactorialMeshBijection(t *testing.T) {
	for k := 2; k <= 6; k++ {
		m, err := NewFactorialMesh(k)
		if err != nil {
			t.Fatal(err)
		}
		if int64(m.Order()) != perm.Factorial(k) {
			t.Fatalf("factorial mesh order %d, want %d", m.Order(), perm.Factorial(k))
		}
		seen := make(map[int64]bool)
		for v := 0; v < m.Order(); v++ {
			p := m.MeshToPerm(v)
			if !p.Valid() {
				t.Fatalf("MeshToPerm(%d) invalid", v)
			}
			r := p.Rank()
			if seen[r] {
				t.Fatalf("MeshToPerm not injective at %d", v)
			}
			seen[r] = true
		}
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	tr := must(NewCompleteBinaryTree(3))
	if tr.Order() != 15 || tr.Name() != "CBT(3)" {
		t.Fatalf("CBT params wrong")
	}
	if _, err := NewCompleteBinaryTree(-1); err == nil {
		t.Error("negative height accepted")
	}
	mat := graph.Materialize(tr)
	if !graph.IsUndirected(mat) {
		t.Fatal("tree should be undirected")
	}
	// The root sits at depth 0, so its eccentricity is the height; a
	// leaf's is the diameter 2·height.
	if d := graph.StatsFrom(mat, 0).Ecc; d != 3 {
		t.Fatalf("root eccentricity %d", d)
	}
	if d := graph.StatsFrom(mat, 14).Ecc; d != 6 {
		t.Fatalf("diameter %d", d)
	}
	// Root degree 2, leaves degree 1, internal 3.
	if len(mat.Neighbors(0)) != 2 {
		t.Fatal("root degree")
	}
	if len(mat.Neighbors(14)) != 1 {
		t.Fatal("leaf degree")
	}
	if len(mat.Neighbors(1)) != 3 {
		t.Fatal("internal degree")
	}
}

func TestInorderIsPermutationWithDilation2InHypercube(t *testing.T) {
	// The inorder labeling embeds CBT(h) into Q_(h+1) with dilation 2.
	for h := 1; h <= 6; h++ {
		tr := must(NewCompleteBinaryTree(h))
		seen := make([]bool, tr.Order())
		for v := 0; v < tr.Order(); v++ {
			in := tr.Inorder(v)
			if in < 0 || in >= tr.Order() || seen[in] {
				t.Fatalf("h=%d inorder not a permutation at %d (got %d)", h, v, in)
			}
			seen[in] = true
		}
		for v := 1; v < tr.Order(); v++ {
			p := (v - 1) / 2
			if d := bits.OnesCount(uint(tr.Inorder(v) ^ tr.Inorder(p))); d > 2 {
				t.Fatalf("h=%d tree edge (%d,%d) dilation %d > 2", h, p, v, d)
			}
		}
	}
}

func TestTranspositionNetwork(t *testing.T) {
	tn := must(NewTranspositionNetwork(5))
	if tn.Degree() != 10 || tn.N() != 120 {
		t.Fatalf("5-TN params wrong")
	}
	if _, err := NewTranspositionNetwork(1); err == nil {
		t.Error("1-TN accepted")
	}
	cg, err := tn.Cayley(200)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Degree() != tn.Degree() {
		t.Fatalf("5-TN degree %d, want %d", cg.Degree(), tn.Degree())
	}
	// Vertex-symmetric, so the eccentricity of node 0 is the diameter.
	if d := graph.StatsFrom(graph.Materialize(cg), 0).Ecc; d != 4 {
		t.Fatalf("BFS diameter %d, want 4", d)
	}
}

// TestTNRouteOptimal checks each route's length against the BFS
// distance of the Cayley graph: the route from u to v has as many
// moves as v⁻¹∘u lies away from the identity, node 0.
func TestTNRouteOptimal(t *testing.T) {
	tn := must(NewTranspositionNetwork(7))
	cg := must(tn.Cayley(0))
	dist := graph.BFS(graph.Materialize(cg), 0)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		u, v := perm.Random(r, 7), perm.Random(r, 7)
		seq := tn.Route(u, v)
		if want := dist[v.Inverse().Compose(u).Rank()]; len(seq) != want {
			t.Fatalf("TN route %d moves, distance %d", len(seq), want)
		}
		cur := u.Clone()
		for _, g := range seq {
			cur = g.Apply(cur)
		}
		if !cur.Equal(v) {
			t.Fatalf("TN route from %v to %v ended at %v", u, v, cur)
		}
	}
}

func TestBubbleSortGraph(t *testing.T) {
	b := must(NewBubbleSort(5))
	if b.Degree() != 4 || b.N() != 120 {
		t.Fatal("bubble-sort params wrong")
	}
	if _, err := NewBubbleSort(1); err == nil {
		t.Error("1-bubble-sort accepted")
	}
	cg, err := b.Cayley(200)
	if err != nil {
		t.Fatal(err)
	}
	// The diameter k(k−1)/2 is the inversion count of the reversal.
	if d := graph.StatsFrom(graph.Materialize(cg), 0).Ecc; d != 10 {
		t.Fatalf("BFS diameter %d, want 10", d)
	}
}

// TestBubbleSortSubgraphOfTN checks every arc of the 5-bubble-sort
// graph against the 5-TN's arcs out of the same node.
func TestBubbleSortSubgraphOfTN(t *testing.T) {
	b := must(must(NewBubbleSort(5)).Cayley(0))
	tn := must(must(NewTranspositionNetwork(5)).Cayley(0))
	for v := 0; v < b.Order(); v++ {
		tnArcs := map[int]bool{}
		for _, w := range tn.Neighbors(v) {
			tnArcs[w] = true
		}
		for _, w := range b.Neighbors(v) {
			if !tnArcs[w] {
				t.Fatalf("bubble arc %d→%d is not a 5-TN arc", v, w)
			}
		}
	}
}

func TestMeshIDPanicsOutOfRange(t *testing.T) {
	m := must(NewMesh(2, 2))
	defer func() {
		if recover() == nil {
			t.Error("ID out of range did not panic")
		}
	}()
	m.ID([]int{2, 0})
}
