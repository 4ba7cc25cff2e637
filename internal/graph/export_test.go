package graph

import (
	"strings"
	"testing"

	"supercayley/internal/gens"
)

func TestWriteDOTUndirected(t *testing.T) {
	g := ring(4)
	var b strings.Builder
	if err := WriteDOT(&b, g, "ring4", nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "graph \"ring4\"") {
		t.Fatalf("expected undirected header: %s", out)
	}
	// 4 edges, each once.
	if got := strings.Count(out, "--"); got != 4 {
		t.Fatalf("edge count %d, want 4", got)
	}
}

func TestWriteDOTDirectedWithLabels(t *testing.T) {
	g := NewAdjacency("d", [][]int{{1}, {}})
	var b strings.Builder
	err := WriteDOT(&b, g, "arrow", func(v int) string { return string(rune('a' + v)) })
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "digraph") || !strings.Contains(out, "0 -> 1;") {
		t.Fatalf("directed output wrong: %s", out)
	}
	if !strings.Contains(out, `label="a"`) {
		t.Fatalf("labels missing: %s", out)
	}
}

// TestStronglyConnected reads strong connectivity off the survivor
// statistics of a fault-free graph: every node reaches every other.
func TestStronglyConnected(t *testing.T) {
	strong := func(g Graph) bool { return NewCSRFromGraph(g).SurvivorStatsUnder(nil, nil).Connected }
	// Directed cycle: strongly connected.
	cyc := NewAdjacency("cycle", [][]int{{1}, {2}, {0}})
	if !strong(cyc) {
		t.Fatal("directed cycle should be strongly connected")
	}
	// Directed path: not.
	path := NewAdjacency("path", [][]int{{1}, {2}, {}})
	if strong(path) {
		t.Fatal("directed path should not be strongly connected")
	}
	// The 5-rotator (insertions only) is strongly connected.
	var gs []gens.Generator
	for i := 2; i <= 5; i++ {
		gs = append(gs, gens.Insertion(5, i))
	}
	set, err := gens.NewSet(gs...)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := NewCayley("5-rotator", set, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strong(cg) {
		t.Fatal("rotator should be strongly connected")
	}
}

func TestHamiltonianWord(t *testing.T) {
	// 4-star: a Hamiltonian word of 23 letters whose partial products
	// visit all 24 nodes.
	cg, err := NewCayley("4-star", starSet(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	word, ok := HamiltonianWord(cg, 0)
	if !ok {
		t.Fatal("no Hamiltonian word for the 4-star")
	}
	if len(word) != 23 {
		t.Fatalf("word length %d, want 23", len(word))
	}
	mat := Materialize(cg)
	visited := map[int]bool{0: true}
	cur := 0
	for _, p := range word {
		cur = mat.Neighbors(cur)[p]
		if visited[cur] {
			t.Fatalf("word revisits node %d", cur)
		}
		visited[cur] = true
	}
	if len(visited) != 24 {
		t.Fatalf("word visits %d nodes", len(visited))
	}
}

func TestHamiltonianWordFailsGracefully(t *testing.T) {
	// The 2-star (a single edge) has a trivial word; exercise the tiny
	// case.
	cg, err := NewCayley("2-star", starSet(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	word, ok := HamiltonianWord(cg, 0)
	if !ok || len(word) != 1 {
		t.Fatalf("2-star word: %v %v", word, ok)
	}
}
