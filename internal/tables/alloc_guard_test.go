//go:build !race

// Allocation-regression guards for the table lookup loops, tagged off
// under the race detector (instrumentation inflates every count).

package tables

import (
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// TestDenseLookupAllocFree is the AllocsPerRun==0 guard on the
// table-mode lookup loop: with a preallocated destination, a dense
// walk — digits pass, per-hop byte loads, incremental reranks, and
// the obs counters — must not allocate.
func TestDenseLookupAllocFree(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1) // k = 8, the benchmark network
	tab, err := Build(nw, Config{Mode: ModeDense})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w := make(perm.Perm, nw.K())
	src := perm.Unrank(nw.K(), 31337)
	dst := make([]gens.GenIndex, 0, 256)
	if avg := testing.AllocsPerRun(200, func() {
		copy(w, src)
		var ok bool
		dst, ok = tab.AppendQuotientRoute(dst[:0], w)
		if !ok {
			t.Fatal("dense table declined")
		}
	}); avg != 0 {
		t.Fatalf("dense table lookup allocates %.2f objects per call, want 0", avg)
	}
}

// TestRankLaneAllocFree guards the rank-addressed lane end to end:
// Table.AppendRouteRanks, the call the shard engine's cold path makes
// — two slab reads, quotient formation, the successor chase and
// telemetry — with a preallocated destination.
func TestRankLaneAllocFree(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1)
	tab, err := Build(nw, Config{Mode: ModeDense})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dst := make([]gens.GenIndex, 0, 256)
	n := nw.N()
	i := int64(0)
	if avg := testing.AllocsPerRun(400, func() {
		rk := (i * 977) % n
		i++
		var ok bool
		if dst, ok = tab.AppendRouteRanks(dst[:0], rk, (rk+1)%n); !ok {
			t.Fatal("dense table at k=8 declined a rank pair")
		}
	}); avg != 0 {
		t.Fatalf("rank-lane AppendRouteRanks allocates %.2f objects per call, want 0", avg)
	}
}
