package tables

import (
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// tenNetworks instantiates one small network per family (k = 5,
// N = 120, exhaustively checkable).
func tenNetworks(t *testing.T) []*core.Network {
	t.Helper()
	nws := make([]*core.Network, 0, len(core.Families))
	for _, f := range core.Families {
		if f == core.IS {
			nw, err := core.NewIS(5)
			if err != nil {
				t.Fatalf("NewIS(5): %v", err)
			}
			nws = append(nws, nw)
			continue
		}
		nw, err := core.New(f, 2, 2)
		if err != nil {
			t.Fatalf("New(%s, 2, 2): %v", f, err)
		}
		nws = append(nws, nw)
	}
	return nws
}

// TestDenseDifferentialTenFamilies asserts table-mode routes are
// port-identical to the RouteInto kernel for EVERY quotient of every
// family — the correctness contract of the whole package.
func TestDenseDifferentialTenFamilies(t *testing.T) {
	for _, nw := range tenNetworks(t) {
		tab, err := Build(nw, Config{Mode: ModeDense})
		if err != nil {
			t.Fatalf("%s: Build: %v", nw.Name(), err)
		}
		diffAllQuotients(t, nw, tab)
	}
}

// TestBandedDifferentialTenFamilies does the same through the banded
// walk with tiny bands (so the walk crosses band boundaries and
// faults constantly), without a residency budget and under one of
// half the table.  Under the budget, refused walk starts decline and
// refused mid-walk bands substitute core.GreedyDim; every route the
// table serves must still match the kernel.
func TestBandedDifferentialTenFamilies(t *testing.T) {
	for _, nw := range tenNetworks(t) {
		for _, budget := range []int64{0, nw.N() / 2} {
			tab, err := Build(nw, Config{Mode: ModeBanded, BandBits: 3, MaxResidentBytes: budget})
			if err != nil {
				t.Fatalf("%s: Build banded: %v", nw.Name(), err)
			}
			declined := diffAllQuotients(t, nw, tab)
			if budget == 0 {
				continue
			}
			// Each decline is one refused walk start; any refusal beyond
			// them was a mid-walk band the walk crossed on GreedyDim.
			refused := tab.budgetRefused.Load()
			if declined == 0 || refused <= int64(declined) {
				t.Fatalf("%s: half budget declined %d walks, refused %d faults; want declines and mid-walk refusals",
					nw.Name(), declined, refused)
			}
		}
	}
}

// diffAllQuotients checks every route tab serves against the kernel
// and returns how many quotients it declined; only a table under a
// residency budget may decline.
func diffAllQuotients(t *testing.T, nw *core.Network, tab *Table) int {
	t.Helper()
	k := nw.K()
	s := core.NewRouteScratch(k)
	id := perm.Identity(k)
	w := make(perm.Perm, k)
	want := make([]gens.GenIndex, 0, 256)
	got := make([]gens.GenIndex, 0, 256)
	declined := 0
	perm.All(k, func(q perm.Perm) bool {
		// Kernel route of quotient q: RouteInto(q, identity) since
		// id⁻¹∘q = q.
		want = nw.RouteInto(want[:0], q, id, s)
		copy(w, q)
		var ok bool
		got, ok = tab.AppendQuotientRoute(got[:0], w)
		if !ok {
			if tab.budget == 0 {
				t.Fatalf("%s: table without a budget declined quotient %v", nw.Name(), q)
			}
			declined++
			return true
		}
		if len(got) != len(want) {
			t.Fatalf("%s: quotient %v: table route %d steps, kernel %d", nw.Name(), q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: quotient %v: port %d is %d, kernel %d", nw.Name(), q, i, got[i], want[i])
			}
		}
		// w is scratch on success: the digits walk consumes it to the
		// identity, the fast-lane chase leaves it untouched.  Anything
		// else means the walk corrupted its input.
		if !w.IsIdentity() && !w.Equal(q) {
			t.Fatalf("%s: quotient %v left as %v (neither identity nor untouched)", nw.Name(), q, w)
		}
		return true
	})
	return declined
}

// TestRankLaneDifferentialTenFamilies drives the rank-addressed fast
// lane (perm slab + successor chase, no UnrankInto) for EVERY
// (src, dst) pair of every family — Table.AppendRouteRanks, the call
// the shard engine's cold path makes — and checks the routes against
// a table-less router.
func TestRankLaneDifferentialTenFamilies(t *testing.T) {
	for _, nw := range tenNetworks(t) {
		tab, err := Build(nw, Config{Mode: ModeDense})
		if err != nil {
			t.Fatalf("%s: Build: %v", nw.Name(), err)
		}
		plain := core.NewCachedRouter(nw, core.CacheConfig{})
		n := nw.N()
		var a, b []gens.GenIndex
		for src := int64(0); src < n; src++ {
			for dst := int64(0); dst < n; dst++ {
				var ok bool
				if a, ok = tab.AppendRouteRanks(a[:0], src, dst); !ok {
					t.Fatalf("%s: dense table at k=%d declined rank pair %d→%d", nw.Name(), nw.K(), src, dst)
				}
				var err error
				if b, err = plain.AppendRouteRanks(b[:0], src, dst); err != nil {
					t.Fatalf("%s: plain route %d→%d: %v", nw.Name(), src, dst, err)
				}
				if len(a) != len(b) {
					t.Fatalf("%s: route %d→%d: %d steps with table, %d without", nw.Name(), src, dst, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: route %d→%d: port %d differs (%d vs %d)", nw.Name(), src, dst, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestBuildModes exercises mode selection and caps.
func TestBuildModes(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	tab, err := Build(nw, Config{})
	if err != nil {
		t.Fatalf("auto build: %v", err)
	}
	if tab.mode != ModeDense {
		t.Fatalf("auto mode at k=5 picked %v, want dense", tab.mode)
	}
	// Dense at k ≤ FastLaneMaxK: dims (1 byte/rank) plus the fast lane —
	// rank→perm slab (k bytes/rank) and successor ranks (4 bytes/rank).
	if want := nw.N() * int64(5+nw.K()); tab.Bytes() != want {
		t.Fatalf("dense table %d bytes, want %d", tab.Bytes(), want)
	}
	if tab.n != nw.N() || tab.k != nw.K() || tab.name != nw.Name() {
		t.Fatalf("table metadata mismatch: %v", tab.Stats())
	}
	if tab.Stats().BuildNS <= 0 {
		t.Fatalf("dense build reported no build time")
	}
	if _, err := Build(nw, Config{BandBits: 31}); err == nil {
		t.Fatalf("accepted absurd band bits")
	}
	if _, err := Build(nw, Config{Policy: FaultBuild + 1}); err == nil {
		t.Fatalf("accepted a fault policy other than FaultBuild")
	}
}

// TestBandedFaultAccounting checks fault/build counters and resident
// bytes under on-demand growth, up to a table every walk has faulted
// in whole.
func TestBandedFaultAccounting(t *testing.T) {
	nw := core.MustNew(core.RR, 2, 2)
	tab, err := Build(nw, Config{Mode: ModeBanded, BandBits: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tab.Bytes() != 0 || tab.Stats().BandsBuilt != 0 {
		t.Fatalf("banded table born with resident state: %v", tab.Stats())
	}
	w := perm.Unrank(nw.K(), nw.N()-1)
	if _, ok := tab.AppendQuotientRoute(nil, w); !ok {
		t.Fatalf("FaultBuild declined")
	}
	st := tab.Stats()
	if st.BandFaults == 0 || st.BandsBuilt == 0 || st.Bytes == 0 {
		t.Fatalf("fault did not materialize a band: %+v", st)
	}
	// A walk from every quotient faults every band in: residency is
	// then exactly n bytes, one build per band.
	perm.All(nw.K(), func(q perm.Perm) bool {
		if _, ok := tab.AppendQuotientRoute(nil, q.Clone()); !ok {
			t.Fatalf("FaultBuild declined quotient %v", q)
		}
		return true
	})
	if st := tab.Stats(); st.Bytes != nw.N() || st.BandsBuilt != tab.numBands() {
		t.Fatalf("fully faulted banded table %+v, want %d bytes in %d bands", st, nw.N(), tab.numBands())
	}
}
