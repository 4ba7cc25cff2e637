package graph

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// buildCSR assembles a CSR from an adjacency list.
func buildCSR(t *testing.T, name string, adj [][]int32) *CSR {
	t.Helper()
	offsets := make([]int64, len(adj)+1)
	var edges []int32
	for v, row := range adj {
		offsets[v+1] = offsets[v] + int64(len(row))
		edges = append(edges, row...)
	}
	return NewCSR(name, offsets, edges)
}

// directedCycle returns the n-cycle 0→1→…→n−1→0.
func directedCycle(t *testing.T, n int) *CSR {
	t.Helper()
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = []int32{int32((v + 1) % n)}
	}
	return buildCSR(t, "cycle", adj)
}

func TestSurvivorStatsNoFaults(t *testing.T) {
	c := directedCycle(t, 5)
	st := c.SurvivorStatsUnder(nil, nil)
	if st.Survivors != 5 || st.ReachablePairs != 20 || st.LargestReach != 5 || !st.Connected {
		t.Fatalf("intact cycle: %+v", st)
	}
	if st.ReachableFraction() != 1.0 {
		t.Fatalf("intact cycle fraction %v", st.ReachableFraction())
	}
}

func TestSurvivorStatsCutNode(t *testing.T) {
	// Killing node 2 of the 5-cycle leaves the path 3→4→0→1: ordered
	// reachable pairs 3+2+1 = 6, largest reach 4 (from node 3).
	c := directedCycle(t, 5)
	dead := []bool{false, false, true, false, false}
	st := c.SurvivorStatsUnder(dead, nil)
	if st.Survivors != 4 || st.ReachablePairs != 6 || st.LargestReach != 4 || st.Connected {
		t.Fatalf("cut cycle: %+v", st)
	}
}

func TestSurvivorStatsCutArc(t *testing.T) {
	// Deleting the arc 4→0 has the same effect as no node dying but
	// strong connectivity breaking at that arc.
	c := directedCycle(t, 5)
	arcDown := func(v, i int) bool { return v == 4 && i == 0 }
	st := c.SurvivorStatsUnder(nil, arcDown)
	if st.Survivors != 5 || st.Connected {
		t.Fatalf("arc-cut cycle: %+v", st)
	}
	// Path 0→1→2→3→4: 4+3+2+1 = 10 ordered pairs.
	if st.ReachablePairs != 10 || st.LargestReach != 5 {
		t.Fatalf("arc-cut cycle pairs: %+v", st)
	}
}

func TestReachableUnder(t *testing.T) {
	c := directedCycle(t, 6)
	dead := make([]bool, 6)
	dead[3] = true
	got := c.ReachableUnder(1, dead, nil)
	want := []bool{false, true, true, false, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reachable from 1 with node 3 dead: %v, want %v", got, want)
	}
	if c.ReachableUnder(3, dead, nil) != nil {
		t.Fatal("reachability from a dead source must be nil")
	}
	// No faults: everything reachable.
	all := c.ReachableUnder(0, nil, nil)
	for v, ok := range all {
		if !ok {
			t.Fatalf("node %d unreachable in the intact cycle", v)
		}
	}
}

// randomDigraph returns a random d-out-regular digraph on n nodes.
func randomDigraph(t *testing.T, n, d int, seed int64) *CSR {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	adj := make([][]int32, n)
	for v := range adj {
		for j := 0; j < d; j++ {
			adj[v] = append(adj[v], int32(r.Intn(n)))
		}
	}
	return buildCSR(t, "random", adj)
}

func TestReachMatrixMatchesPerSourceBFS(t *testing.T) {
	c := randomDigraph(t, 300, 3, 42)
	r := rand.New(rand.NewSource(7))
	dead := make([]bool, 300)
	for i := 0; i < 30; i++ {
		dead[r.Intn(300)] = true
	}
	arcDown := func(v, i int) bool { return (v+i)%17 == 0 }
	m, err := c.ReachMatrixUnder(dead, arcDown)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 300; src++ {
		row := c.ReachableUnder(src, dead, arcDown)
		for v := 0; v < 300; v++ {
			want := row != nil && row[v]
			if m.At(src, v) != want {
				t.Fatalf("At(%d, %d) = %v, want %v", src, v, m.At(src, v), want)
			}
		}
	}
}

func TestReachMatrixRejectsHugeGraphs(t *testing.T) {
	n := MaxReachMatrixNodes + 1
	offsets := make([]int64, n+1)
	c := NewCSR("huge", offsets, nil)
	if _, err := c.ReachMatrixUnder(nil, nil); err == nil {
		t.Fatal("matrix beyond MaxReachMatrixNodes must be rejected")
	}
}

func TestSurvivorStatsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	c := randomDigraph(t, 2000, 4, 3)
	dead := make([]bool, 2000)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		dead[r.Intn(2000)] = true
	}
	run := func(procs int) SurvivorStats {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return c.SurvivorStatsUnder(dead, nil)
	}
	r1, r4 := run(1), run(4)
	if r1 != r4 {
		t.Fatalf("stats differ across GOMAXPROCS:\n1: %+v\n4: %+v", r1, r4)
	}
}
