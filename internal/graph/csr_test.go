package graph

import (
	"math/rand"
	"sync"
	"testing"

	"supercayley/internal/gens"
)

// starSet returns the k-star generator set T2..Tk.
func starSet(k int) *gens.Set {
	gs := make([]gens.Generator, 0, k-1)
	for i := 2; i <= k; i++ {
		gs = append(gs, gens.Transposition(k, i))
	}
	set, err := gens.NewSet(gs...)
	if err != nil {
		panic(err)
	}
	return set
}

// randomAdjacency returns a random directed graph on n nodes where
// each ordered pair (v,w), v≠w, is an arc with probability p; with
// mirror set, each arc is inserted in both directions.
func randomAdjacency(r *rand.Rand, n int, p float64, mirror bool) *Adjacency {
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			if w == v || r.Float64() >= p {
				continue
			}
			adj[v] = append(adj[v], w)
			if mirror && v < w {
				adj[w] = append(adj[w], v)
			}
		}
	}
	return NewAdjacency("random", adj)
}

// checkAgainstLegacy asserts that every CSR analytic agrees with the
// sequential legacy implementation on g.
func checkAgainstLegacy(t *testing.T, g Graph) {
	t.Helper()
	csr := NewCSRFromGraph(g)
	if got, want := csr.Order(), g.Order(); got != want {
		t.Fatalf("order %d, want %d", got, want)
	}
	for _, sample := range []int{1, 3, g.Order()} {
		if got, want := csr.LooksVertexSymmetric(sample), LooksVertexSymmetric(g, sample); got != want {
			t.Fatalf("symmetric(sample=%d) %v, want %v", sample, got, want)
		}
	}
	n := g.Order()
	var dist []int32
	for v := 0; v < n; v++ {
		legacy := BFS(g, v)
		dist = csr.Distances(v, dist)
		for w := range legacy {
			if int(dist[w]) != legacy[w] {
				t.Fatalf("dist[%d][%d] = %d, want %d", v, w, dist[w], legacy[w])
			}
		}
		ls := StatsFrom(g, v)
		cs := csr.Stats(v)
		if ls != cs {
			t.Fatalf("stats from %d: %+v, want %+v", v, cs, ls)
		}
	}
}

func TestCSRAgreesOnRingAndPath(t *testing.T) {
	checkAgainstLegacy(t, ring(9))
	checkAgainstLegacy(t, pathGraph(7))
	checkAgainstLegacy(t, NewAdjacency("two", [][]int{{}, {}}))
	checkAgainstLegacy(t, NewAdjacency("arc", [][]int{{1}, {}}))
}

func TestCSRAgreesOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(24)
		p := 0.05 + r.Float64()*0.4
		checkAgainstLegacy(t, randomAdjacency(r, n, p, trial%2 == 0))
	}
}

func TestCSRFromCayleyMatchesMaterialize(t *testing.T) {
	cg, err := NewCayley("5-star", starSet(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	mat := Materialize(cg)
	csr := NewCSRFromCayley(cg)
	if csr.Order() != mat.Order() {
		t.Fatalf("order %d vs %d", csr.Order(), mat.Order())
	}
	for v := 0; v < mat.Order(); v++ {
		want := mat.Neighbors(v)
		got := csr.Arcs(v)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d arcs, want %d", v, len(got), len(want))
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("node %d arc %d: %d, want %d (must match arc for arc)", v, i, got[i], want[i])
			}
		}
	}
	checkAgainstLegacy(t, mat)
	// The 5-star specifically: diameter 6 (vertex-symmetric, so the
	// eccentricity of node 0), undirected.
	if d := csr.Stats(0).Ecc; d != 6 {
		t.Fatalf("5-star diameter %d, want 6", d)
	}
	if !IsUndirected(csr) || !csr.LooksVertexSymmetric(8) {
		t.Fatal("5-star should be undirected and look vertex-symmetric")
	}
}

// TestCayleyNeighborsReusesBuffer pins the documented contract:
// Cayley.Neighbors reuses its internal buffer across calls, so it is
// not safe for concurrent use and results must not be retained.
func TestCayleyNeighborsReusesBuffer(t *testing.T) {
	cg, err := NewCayley("4-star", starSet(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	first := cg.Neighbors(0)
	snapshot := append([]int(nil), first...)
	second := cg.Neighbors(1)
	if &first[0] != &second[0] {
		t.Fatal("Neighbors no longer reuses its buffer; update the doc and this test")
	}
	same := true
	for i := range snapshot {
		if first[i] != snapshot[i] {
			same = false
		}
	}
	if same {
		t.Fatal("second call did not overwrite the first call's result")
	}
}

// TestCayleyNeighborsInto verifies the concurrent-safe variant agrees
// with Neighbors from every node, calling it from many goroutines at
// once (run under -race this exercises the materializer's safety).
func TestCayleyNeighborsInto(t *testing.T) {
	cg, err := NewCayley("5-star", starSet(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	n, deg := cg.Order(), cg.Degree()
	want := make([][]int, n)
	for v := 0; v < n; v++ {
		want[v] = append([]int(nil), cg.Neighbors(v)...)
	}
	var wg sync.WaitGroup
	const workers = 8
	errs := make([]int, workers) // first mismatching node per worker, -1 if none
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = -1
			dst := make([]int, deg)
			for v := w; v < n; v += workers {
				got := cg.NeighborsInto(dst, v)
				for i := range got {
					if got[i] != want[v][i] {
						errs[w] = v
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, v := range errs {
		if v >= 0 {
			t.Fatalf("worker %d: NeighborsInto(%d) disagrees with Neighbors", w, v)
		}
	}
}

func TestBFSScratchReuse(t *testing.T) {
	csr := NewCSRFromGraph(ring(10))
	s := csr.NewBFSScratch()
	ecc1, sum1, reached1 := levelStats(csr.sweep(0, s))
	// Second run from a different source with the same scratch.
	csr.sweep(3, s)
	// And again from the original source: identical results.
	ecc3, sum3, reached3 := levelStats(csr.sweep(0, s))
	if ecc1 != ecc3 || sum1 != sum3 || reached1 != reached3 {
		t.Fatalf("scratch reuse changed results: (%d,%d,%d) vs (%d,%d,%d)",
			ecc1, sum1, reached1, ecc3, sum3, reached3)
	}
}

// TestMSBFSMatchesSweep cross-checks the bit-parallel batch kernel,
// called with no faults, against the single-source kernel on every
// source of a mid-size graph, including batches that straddle the
// 64-source boundary.
func TestMSBFSMatchesSweep(t *testing.T) {
	cg, err := NewCayley("5-star", starSet(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	csr := NewCSRFromCayley(cg) // 120 nodes: two batches, second partial
	n := csr.Order()
	ms := csr.newMSScratch()
	sw := csr.NewBFSScratch()
	var res msResult
	for lo := 0; lo < n; lo += 64 {
		hi := lo + 64
		if hi > n {
			hi = n
		}
		srcs := make([]int32, 0, 64)
		for v := lo; v < hi; v++ {
			srcs = append(srcs, int32(v))
		}
		csr.msbfsUnder(srcs, ms, &res, nil, nil)
		for i, src := range srcs {
			ecc, sum, reached := levelStats(csr.sweep(src, sw))
			if int(res.ecc[i]) != ecc || res.sum[i] != sum || int(res.reached[i]) != reached {
				t.Fatalf("source %d: msbfsUnder (%d,%d,%d), sweep (%d,%d,%d)",
					src, res.ecc[i], res.sum[i], res.reached[i], ecc, sum, reached)
			}
		}
	}
}

func TestNewCSRValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("malformed offsets should panic")
		}
	}()
	NewCSR("bad", []int64{0, 2}, []int32{0, 5})
}
