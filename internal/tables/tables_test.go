package tables

import (
	"math/rand"
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
// faults constantly) under both fault policies.
func TestBandedDifferentialTenFamilies(t *testing.T) {
	for _, nw := range tenNetworks(t) {
		for _, policy := range []FaultPolicy{FaultBuild, FaultDecline} {
			tab, err := Build(nw, Config{Mode: ModeBanded, BandBits: 3, Policy: policy})
			if err != nil {
				t.Fatalf("%s: Build banded: %v", nw.Name(), err)
			}
			if policy == FaultDecline {
				// Build half the bands; declined starts are fine, the
				// covered starts must still cross absent bands mid-walk.
				if err := tab.Prebuild(0, tab.numBands()/2); err != nil {
					t.Fatalf("%s: Prebuild: %v", nw.Name(), err)
				}
			}
			diffAllQuotients(t, nw, tab)
		}
	}
}

func diffAllQuotients(t *testing.T, nw *core.Network, tab *Table) {
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
			if tab.Policy() != FaultDecline {
				t.Fatalf("%s: table declined quotient %v under policy %v", nw.Name(), q, tab.Policy())
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
	if tab.Policy() == FaultDecline && tab.Mode() == ModeBanded {
		if declined == 0 {
			t.Fatalf("%s: FaultDecline table with half coverage declined nothing", nw.Name())
		}
	} else if declined != 0 {
		t.Fatalf("%s: %d declines from a full-coverage table", nw.Name(), declined)
	}
}

// TestRouterFallThrough wires a table into CachedRouter and checks
// end-to-end pair routes against a table-less router, plus the
// decline → LRU → kernel path.
func TestRouterFallThrough(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	tab, err := Build(nw, Config{Mode: ModeBanded, BandBits: 4, Policy: FaultDecline})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	withTable, err := core.NewCachedRouterWithTable(nw, core.CacheConfig{}, core.TableConfig{Table: tab})
	if err != nil {
		t.Fatalf("NewCachedRouterWithTable: %v", err)
	}
	plain := core.NewCachedRouter(nw, core.CacheConfig{})
	r := rand.New(rand.NewSource(7))
	n := nw.N()
	for trial := 0; trial < 2000; trial++ {
		src, dst := r.Int63n(n), r.Int63n(n)
		a, err := withTable.AppendRouteRanks(nil, src, dst)
		if err != nil {
			t.Fatalf("table route %d→%d: %v", src, dst, err)
		}
		b, err := plain.AppendRouteRanks(nil, src, dst)
		if err != nil {
			t.Fatalf("plain route %d→%d: %v", src, dst, err)
		}
		if len(a) != len(b) {
			t.Fatalf("route %d→%d: %d steps with table, %d without", src, dst, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("route %d→%d: port %d differs (%d vs %d)", src, dst, i, a[i], b[i])
			}
		}
	}
}

// TestRankLaneDifferentialTenFamilies drives the rank-addressed fast
// lane (perm slab + successor chase, no UnrankInto) through
// CachedRouter for EVERY (src, dst) pair of every family and checks
// the routes against a table-less router.
func TestRankLaneDifferentialTenFamilies(t *testing.T) {
	for _, nw := range tenNetworks(t) {
		tab, err := Build(nw, Config{Mode: ModeDense})
		if err != nil {
			t.Fatalf("%s: Build: %v", nw.Name(), err)
		}
		if _, ok := tab.AppendRouteRanks(nil, 0, 0); !ok {
			t.Fatalf("%s: dense table at k=%d has no rank lane", nw.Name(), nw.K())
		}
		withTable, err := core.NewCachedRouterWithTable(nw, core.CacheConfig{}, core.TableConfig{Table: tab})
		if err != nil {
			t.Fatalf("%s: NewCachedRouterWithTable: %v", nw.Name(), err)
		}
		plain := core.NewCachedRouter(nw, core.CacheConfig{})
		n := nw.N()
		var a, b []gens.GenIndex
		for src := int64(0); src < n; src++ {
			for dst := int64(0); dst < n; dst++ {
				var err error
				if a, err = withTable.AppendRouteRanks(a[:0], src, dst); err != nil {
					t.Fatalf("%s: table route %d→%d: %v", nw.Name(), src, dst, err)
				}
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

// TestUseTableValidation rejects mismatched tables.
func TestUseTableValidation(t *testing.T) {
	ms := core.MustNew(core.MS, 2, 2)
	rs := core.MustNew(core.RS, 2, 2)
	tab, err := Build(ms, Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cr := core.NewCachedRouter(rs, core.CacheConfig{})
	if err := cr.UseTable(tab); err == nil {
		t.Fatalf("UseTable accepted an MS table on an RS router")
	}
	cr = core.NewCachedRouter(ms, core.CacheConfig{})
	if err := cr.UseTable(tab); err != nil {
		t.Fatalf("UseTable rejected its own table: %v", err)
	}
	if cr.Table() != tab {
		t.Fatalf("Table() did not return the installed table")
	}
	if err := cr.UseTable(nil); err != nil || cr.Table() != nil {
		t.Fatalf("UseTable(nil) did not clear the table")
	}
}

// TestBuildModes exercises mode selection and caps.
func TestBuildModes(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	tab, err := Build(nw, Config{})
	if err != nil {
		t.Fatalf("auto build: %v", err)
	}
	if tab.Mode() != ModeDense {
		t.Fatalf("auto mode at k=5 picked %v, want dense", tab.Mode())
	}
	// Dense at k ≤ FastLaneMaxK: dims (1 byte/rank) plus the fast lane —
	// rank→perm slab (k bytes/rank) and successor ranks (4 bytes/rank).
	if want := nw.N() * int64(5+nw.K()); tab.Bytes() != want {
		t.Fatalf("dense table %d bytes, want %d", tab.Bytes(), want)
	}
	if tab.N() != nw.N() || tab.K() != nw.K() || tab.Name() != nw.Name() {
		t.Fatalf("table metadata mismatch: %v", tab.Stats())
	}
	if tab.Stats().BuildNS <= 0 {
		t.Fatalf("dense build reported no build time")
	}
	if _, err := Build(nw, Config{BandBits: 31}); err == nil {
		t.Fatalf("accepted absurd band bits")
	}
}

// TestBandedFaultAccounting checks fault/build counters and resident
// bytes under on-demand growth.
func TestBandedFaultAccounting(t *testing.T) {
	nw := core.MustNew(core.RR, 2, 2)
	tab, err := Build(nw, Config{Mode: ModeBanded, BandBits: 4, Policy: FaultBuild})
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
	// Full prebuild must make residency exactly n bytes.
	if err := tab.Prebuild(0, tab.numBands()); err != nil {
		t.Fatalf("Prebuild: %v", err)
	}
	if tab.Bytes() != nw.N() {
		t.Fatalf("fully built banded table %d bytes, want %d", tab.Bytes(), nw.N())
	}
}
