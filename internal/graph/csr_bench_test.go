package graph

import "testing"

// Benchmarks for graph materialization (legacy [][]int Adjacency vs
// parallel CSR) at k = 7 (5040 nodes) and k = 8 (40320 nodes).
//
// Run with:  go test ./internal/graph -bench BenchmarkGraph -benchtime 1x

func benchCayley(b testing.TB, k int) *Cayley {
	cg, err := NewCayley("star", starSet(k), 0)
	if err != nil {
		b.Fatal(err)
	}
	return cg
}

func BenchmarkGraphMaterializeAdjacency7(b *testing.B) { benchMaterializeAdjacency(b, 7) }
func BenchmarkGraphMaterializeAdjacency8(b *testing.B) { benchMaterializeAdjacency(b, 8) }
func BenchmarkGraphMaterializeCSR7(b *testing.B)       { benchMaterializeCSR(b, 7) }
func BenchmarkGraphMaterializeCSR8(b *testing.B)       { benchMaterializeCSR(b, 8) }

func benchMaterializeAdjacency(b *testing.B, k int) {
	cg := benchCayley(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Materialize(cg).Order() != cg.Order() {
			b.Fatal("bad order")
		}
	}
}

func benchMaterializeCSR(b *testing.B, k int) {
	cg := benchCayley(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if NewCSRFromCayley(cg).Order() != cg.Order() {
			b.Fatal("bad order")
		}
	}
}
