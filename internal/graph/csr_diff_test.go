// Differential tests for the CSR analytics engine against the legacy
// sequential implementations, over every super Cayley graph family.
// These live in an external test package so they can instantiate the
// families via internal/core (which itself imports internal/graph).
package graph_test

import (
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/graph"
)

// smallNetworks instantiates all ten families of the paper at their
// smallest sizes (k = 5: l = 2 boxes of n = 2 balls, and IS(5)), the
// set the acceptance criteria require bit-identical analytics on.
func smallNetworks(t *testing.T) []*core.Network {
	t.Helper()
	nws := make([]*core.Network, 0, len(core.Families))
	for _, f := range core.Families {
		if f == core.IS {
			nw, err := core.NewIS(5)
			if err != nil {
				t.Fatal(err)
			}
			nws = append(nws, nw)
			continue
		}
		nws = append(nws, core.MustNew(f, 2, 2))
	}
	return nws
}

func TestCSRAnalyticsMatchLegacyOnAllFamilies(t *testing.T) {
	for _, nw := range smallNetworks(t) {
		nw := nw
		t.Run(nw.Name(), func(t *testing.T) {
			cg, err := nw.Cayley(45000)
			if err != nil {
				t.Fatal(err)
			}
			mat := graph.Materialize(cg)
			csr := graph.NewCSRFromCayley(cg)

			if got, want := csr.Stats(0), graph.StatsFrom(mat, 0); got != want {
				t.Errorf("Stats(0) = %+v, legacy %+v", got, want)
			}
			if got, want := !nw.Directed(), graph.IsUndirected(mat); got != want {
				t.Errorf("IsUndirected = %v, network declares directed=%v", want, nw.Directed())
			}
			for _, sample := range []int{2, 8} {
				if got, want := csr.LooksVertexSymmetric(sample), graph.LooksVertexSymmetric(mat, sample); got != want {
					t.Errorf("LooksVertexSymmetric(%d) = %v, legacy %v", sample, got, want)
				}
			}
		})
	}
}

// TestCSRParallelDeterministic runs the parallel drivers twice on a
// mid-size instance and demands identical outputs — the deterministic
// reduction contract of the worker pool.
func TestCSRParallelDeterministic(t *testing.T) {
	nw := core.MustNew(core.MS, 3, 2) // k = 7, 5040 nodes
	cg, err := nw.Cayley(45000)
	if err != nil {
		t.Fatal(err)
	}
	csr := graph.NewCSRFromCayley(cg)
	s1 := csr.SurvivorStatsUnder(nil, nil)
	s2 := csr.SurvivorStatsUnder(nil, nil)
	if s1 != s2 {
		t.Fatalf("parallel drivers not deterministic: %+v vs %+v", s1, s2)
	}
	if !s1.Connected || s1.LargestReach != csr.Order() {
		t.Fatalf("MS(3,2) should be strongly connected: %+v", s1)
	}
	if !csr.LooksVertexSymmetric(8) {
		t.Fatal("MS(3,2) should look vertex-symmetric")
	}
}
