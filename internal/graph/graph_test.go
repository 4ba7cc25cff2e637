package graph

import (
	"testing"

	"supercayley/internal/perm"
)

// ring returns the undirected n-cycle.
func ring(n int) *Adjacency {
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		adj[v] = []int{(v + 1) % n, (v + n - 1) % n}
	}
	return NewAdjacency("ring", adj)
}

// path returns the n-node path graph.
func pathGraph(n int) *Adjacency {
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		if v > 0 {
			adj[v] = append(adj[v], v-1)
		}
		if v < n-1 {
			adj[v] = append(adj[v], v+1)
		}
	}
	return NewAdjacency("path", adj)
}

func TestBFSOnRing(t *testing.T) {
	g := ring(8)
	dist := BFS(g, 0)
	want := []int{0, 1, 2, 3, 4, 3, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := NewAdjacency("two", [][]int{{}, {}})
	dist := BFS(g, 0)
	if dist[1] != -1 {
		t.Fatal("unreachable node should be -1")
	}
	if StatsFrom(g, 0).Connected {
		t.Fatal("StatsFrom should report disconnection")
	}
}

// TestDiameterRingAndPath takes the diameter as the largest CSR
// single-source eccentricity.
func TestDiameterRingAndPath(t *testing.T) {
	diameter := func(g Graph) int {
		csr := NewCSRFromGraph(g)
		d := 0
		for v := 0; v < csr.Order(); v++ {
			if e := csr.Stats(v).Ecc; e > d {
				d = e
			}
		}
		return d
	}
	if d := diameter(ring(9)); d != 4 {
		t.Fatalf("ring(9) diameter = %d, want 4", d)
	}
	if d := diameter(pathGraph(6)); d != 5 {
		t.Fatalf("path(6) diameter = %d, want 5", d)
	}
}

func TestStatsFrom(t *testing.T) {
	s := StatsFrom(ring(6), 0)
	// Distances: 0,1,2,3,2,1 → sum 9, mean 9/5.
	if !s.Connected || s.Ecc != 3 || s.Reached != 6 || s.DistCounted != 9 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Mean != 9.0/5.0 {
		t.Fatalf("mean = %f", s.Mean)
	}
}

func TestIsRegularAndUndirected(t *testing.T) {
	csr := NewCSRFromGraph(ring(5))
	for v := 0; v < csr.Order(); v++ {
		if d := len(csr.Arcs(v)); d != 2 {
			t.Fatalf("ring node %d has %d arcs, want 2", v, d)
		}
	}
	if d := len(NewCSRFromGraph(pathGraph(4)).Arcs(0)); d != 1 {
		t.Fatalf("path end has %d arcs, want 1", d)
	}
	if !IsUndirected(ring(5)) {
		t.Fatal("ring should be undirected")
	}
	directed := NewAdjacency("d", [][]int{{1}, {}})
	if IsUndirected(directed) {
		t.Fatal("one-arc graph should be directed")
	}
}

func TestLooksVertexSymmetric(t *testing.T) {
	if !LooksVertexSymmetric(ring(10), 10) {
		t.Fatal("ring should look vertex-symmetric")
	}
	if LooksVertexSymmetric(pathGraph(7), 7) {
		t.Fatal("path should fail profile check")
	}
}

func TestDiameterLowerBound(t *testing.T) {
	// 1 + d + d² … binary tree-like counting.
	if got := DiameterLowerBound(2, 7); got != 2 {
		t.Fatalf("DL(2,7) = %d, want 2", got)
	}
	if got := DiameterLowerBound(2, 8); got != 3 {
		t.Fatalf("DL(2,8) = %d, want 3", got)
	}
	if got := DiameterLowerBound(1, 5); got != 4 {
		t.Fatalf("DL(1,5) = %d, want 4", got)
	}
	if got := DiameterLowerBound(3, 1); got != 0 {
		t.Fatalf("DL(3,1) = %d, want 0", got)
	}
	// Star graph: diameter ⌊3(k−1)/2⌋ must be ≥ DL(k−1, k!).
	for k := 3; k <= 10; k++ {
		lb := DiameterLowerBound(k-1, perm.Factorial(k))
		if lb > perm.StarDiameter(k) {
			t.Fatalf("k=%d: DL %d exceeds star diameter %d", k, lb, perm.StarDiameter(k))
		}
	}
}

// TestAverageDistanceExact sums the CSR single-source distance
// counts over every source: the exact mean over all ordered pairs.
func TestAverageDistanceExact(t *testing.T) {
	csr := NewCSRFromGraph(ring(6))
	var total int64
	for v := 0; v < csr.Order(); v++ {
		total += csr.Stats(v).DistCounted
	}
	if mean := float64(total) / (6 * 5); mean != 9.0/5.0 {
		t.Fatalf("mean = %f, want 1.8", mean)
	}
	if NewCSRFromGraph(NewAdjacency("x", [][]int{{}, {}})).Stats(0).Connected {
		t.Fatal("two isolated nodes should not be connected")
	}
}

// TestCountEdges checks NewCSRFromGraph's copy of a non-Cayley graph
// arc for arc.
func TestCountEdges(t *testing.T) {
	g := ring(7)
	csr := NewCSRFromGraph(g)
	m := 0
	for v := 0; v < g.Order(); v++ {
		want := g.Neighbors(v)
		got := csr.Arcs(v)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d arcs, want %d", v, len(got), len(want))
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("node %d arc %d: %d, want %d", v, i, got[i], want[i])
			}
		}
		m += len(got)
	}
	if m != 14 {
		t.Fatalf("ring(7) arcs = %d, want 14", m)
	}
}

func TestMaterializeAndNameOf(t *testing.T) {
	g := ring(5)
	m := Materialize(g)
	if m.Order() != 5 || NameOf(m) != "ring" {
		t.Fatalf("materialize wrong: %d %q", m.Order(), NameOf(m))
	}
	anon := struct{ Graph }{g}
	_ = anon
	if NameOf(NewAdjacency("", nil)) != "" {
		t.Fatal("NameOf should use Name()")
	}
}

func TestCayleyAdapter(t *testing.T) {
	set := starSet(4)
	cg, err := NewCayley("4-star", set, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Order() != 24 || cg.Degree() != 3 {
		t.Fatalf("order %d degree %d", cg.Order(), cg.Degree())
	}
	// Node labels are Lehmer ranks.
	for v := 0; v < 24; v++ {
		if int(cg.NodePerm(v).Rank()) != v {
			t.Fatalf("node %d round-trip failed", v)
		}
	}
	// 4-star: diameter 4 (the eccentricity of any node), undirected.
	mat := Materialize(cg)
	if d := StatsFrom(mat, 0).Ecc; d != 4 {
		t.Fatalf("4-star diameter = %d, want 4", d)
	}
	if !IsUndirected(mat) {
		t.Fatal("4-star should be undirected")
	}
	// Limit enforcement.
	if _, err := NewCayley("too-big", set, 10); err == nil {
		t.Fatal("limit not enforced")
	}
}

func TestDegreeProfileSumsToOrder(t *testing.T) {
	g := ring(12)
	p := DegreeProfile(g, 3)
	total := 0
	for _, c := range p {
		total += c
	}
	if total != 12 {
		t.Fatalf("profile sums to %d", total)
	}
}
