package tables

// Concurrent band-publication tests, written to run under -race: many
// goroutines route through one banded table while bands materialize
// beneath them — readers racing each other's CAS publishes, and a
// budget-constrained table where mid-walk refusals substitute
// GreedyDim.  In every case a route the table DOES serve must be
// byte-identical to the dense reference: band publication may change
// who serves, never what is served.

import (
	"fmt"
	"sync"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// referenceRoutes computes the canonical route for every quotient rank
// from a dense table (the single-threaded ground truth).
func referenceRoutes(t *testing.T, nw *core.Network) [][]gens.GenIndex {
	t.Helper()
	dense, err := Build(nw, Config{Mode: ModeDense})
	if err != nil {
		t.Fatal(err)
	}
	n := nw.N()
	k := nw.K()
	w := make(perm.Perm, k)
	refs := make([][]gens.GenIndex, n)
	for r := int64(0); r < n; r++ {
		perm.UnrankInto(w, r)
		route, ok := dense.AppendQuotientRoute(nil, w)
		if !ok {
			t.Fatalf("dense table declined rank %d", r)
		}
		refs[r] = route
	}
	return refs
}

// raceTable hammers tab from goroutines goroutines, each walking every
// quotient rank at its own stride, and checks each served route
// against refs.  It returns how many calls the table served.
func raceTable(t *testing.T, nw *core.Network, tab *Table, refs [][]gens.GenIndex, goroutines int) uint64 {
	t.Helper()
	n := nw.N()
	k := nw.K()
	var served sync.Map // goroutine id → served count
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := make(perm.Perm, k)
			buf := make([]gens.GenIndex, 0, 64)
			var hits uint64
			// Each goroutine starts at a different offset so distinct
			// unbuilt bands are faulted concurrently.
			for i := int64(0); i < n; i++ {
				r := (i*int64(goroutines) + int64(g)) % n
				perm.UnrankInto(w, r)
				route, ok := tab.AppendQuotientRoute(buf[:0], w)
				if !ok {
					continue
				}
				hits++
				if err := sameRoute(route, refs[r]); err != nil {
					t.Errorf("goroutine %d rank %d: %v", g, r, err)
					return
				}
			}
			served.Store(g, hits)
		}(g)
	}
	wg.Wait()
	var total uint64
	served.Range(func(_, v any) bool { total += v.(uint64); return true })
	return total
}

func sameRoute(got, want []gens.GenIndex) error {
	if len(got) != len(want) {
		return fmt.Errorf("route length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("step %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// TestRaceFaultBuildOutputIdentical: FaultBuild readers racing each
// other's band publication.  Every call must be served (the builder
// policy never declines without a budget) and match the reference.
func TestRaceFaultBuildOutputIdentical(t *testing.T) {
	nw := core.MustNew(core.MS, 5, 1) // k = 6, 720 ranks
	refs := referenceRoutes(t, nw)
	tab, err := Build(nw, Config{Mode: ModeBanded, BandBits: 4, Policy: FaultBuild})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	total := raceTable(t, nw, tab, refs, goroutines)
	if want := uint64(goroutines) * uint64(nw.N()); total != want {
		t.Errorf("FaultBuild served %d of %d calls", total, want)
	}
	if st := tab.Stats(); st.Bytes != nw.N() {
		t.Errorf("fully faulted table resident %d bytes, want %d", st.Bytes, nw.N())
	}
}

// TestRaceBudgetedFaultBuildOutputIdentical: a residency budget far
// below the table forces racing walk-start refusals and mid-walk
// GreedyDim substitution; serving may be partial but never wrong, and
// residency stays within budget plus the documented racing-faulter
// overshoot.
func TestRaceBudgetedFaultBuildOutputIdentical(t *testing.T) {
	nw := core.MustNew(core.MS, 5, 1)
	refs := referenceRoutes(t, nw)
	const budget = 128
	const goroutines = 8
	tab, err := Build(nw, Config{
		Mode: ModeBanded, BandBits: 4, Policy: FaultBuild, MaxResidentBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	raceTable(t, nw, tab, refs, goroutines)
	overshoot := int64(goroutines-1) * (1 << 4)
	if st := tab.Stats(); st.Bytes > budget+overshoot {
		t.Errorf("resident %d bytes over budget %d + overshoot bound %d", st.Bytes, budget, overshoot)
	}
}
