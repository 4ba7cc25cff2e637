package comm

import (
	"math/rand"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/perm"
	"supercayley/internal/sim"
)

func tenFamilies(t *testing.T) []*core.Network {
	t.Helper()
	var nets []*core.Network
	for _, f := range core.Families {
		if f == core.IS {
			nw, err := core.NewIS(5)
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, nw)
			continue
		}
		nets = append(nets, core.MustNew(f, 2, 2))
	}
	return nets
}

// TestEngineRouteMatchesLegacyAllFamilies is the end-to-end
// differential contract: the cached engine emits port-identical routes
// to the legacy per-call path on every family, both cold and warm.
func TestEngineRouteMatchesLegacyAllFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, nw := range tenFamilies(t) {
		n := int(perm.Factorial(nw.K()))
		cached := SCGRoute(nw)
		legacy := SCGRouteLegacy(nw)
		for trial := 0; trial < 100; trial++ {
			src, dst := r.Intn(n), r.Intn(n)
			for pass := 0; pass < 2; pass++ { // second pass rides the cache
				got, err := cached(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				want, err := legacy(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %d→%d pass %d: %d ports, legacy %d", nw.Name(), src, dst, pass, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %d→%d pass %d port %d: %d != %d", nw.Name(), src, dst, pass, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEngineAlternatesMatchLegacyAllFamilies pins the fault-rerouting
// preference order: the cache-backed Alternates ranking must equal the
// legacy StepOptions-based one port for port.
func TestEngineAlternatesMatchLegacyAllFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, nw := range tenFamilies(t) {
		n := int(perm.Factorial(nw.K()))
		cached := NewSCGEngine(nw).Router()
		legacy := SCGRouterLegacy(nw)
		for trial := 0; trial < 50; trial++ {
			cur, dst := r.Intn(n), r.Intn(n)
			got, err := cached.Alternates(cur, dst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := legacy.Alternates(cur, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %d→%d: %d alternates, legacy %d", nw.Name(), cur, dst, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %d→%d alternate %d: port %d, legacy %d (%v vs %v)",
						nw.Name(), cur, dst, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

// TestZipfianCacheHitRate is the cache-effectiveness sanity check: a
// zipfian workload concentrates the quotient space, so even the first
// pass must be mostly hits, and a second pass near-perfect.
func TestZipfianCacheHitRate(t *testing.T) {
	nw := core.MustNew(core.MS, 4, 1) // k = 5, N = 120
	nt, err := SCGNet(nw)
	if err != nil {
		t.Fatal(err)
	}
	engine := NewSCGEngine(nw)
	wl := sim.ZipfWorkload(nt.N(), 5000, 31, 1.2)
	if _, err := sim.Throughput(nt, engine.AppendRoute, wl); err != nil {
		t.Fatal(err)
	}
	cold := engine.cr.Stats()
	if cold.HitRate() < 0.5 {
		t.Fatalf("cold zipfian hit rate %.3f < 0.5 (%v)", cold.HitRate(), cold)
	}
	if cold.Entries >= nt.N() {
		t.Fatalf("cache holds %d entries, more than the %d quotients that exist", cold.Entries, nt.N())
	}
	if _, err := sim.Throughput(nt, engine.AppendRoute, wl); err != nil {
		t.Fatal(err)
	}
	warm := engine.cr.Stats()
	warmHits := warm.Hits - cold.Hits
	warmMisses := warm.Misses - cold.Misses
	if warmMisses != 0 {
		t.Fatalf("second pass over the same workload missed %d times (hits %d)", warmMisses, warmHits)
	}
}
