//go:build !race

// The allocation-regression guards live behind the !race tag: under
// the race detector sync.Pool deliberately drops items (so the pooled
// scratch reallocates) and every allocation count is inflated by
// instrumentation.

package core

import (
	"math/rand"
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// TestRouteIntoAllocFree is the allocation-regression guard for the
// kernel: with a preallocated destination and reused scratch, RouteInto
// must not allocate at all.
func TestRouteIntoAllocFree(t *testing.T) {
	nw := MustNew(MS, 7, 1) // k = 8
	s := NewRouteScratch(nw.K())
	r := rand.New(rand.NewSource(16))
	u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
	dst := make([]gens.GenIndex, 0, 256)
	if avg := testing.AllocsPerRun(200, func() {
		dst = nw.RouteInto(dst[:0], u, v, s)
	}); avg != 0 {
		t.Fatalf("RouteInto allocates %.1f objects per call, want 0", avg)
	}
}

// TestAppendRouteWarmAllocFree guards the cached hot path: once the
// quotient is cached and the pooled scratch is warm, AppendRoute into a
// preallocated buffer must not allocate — with the obs instrumentation
// live (histogram observation per route).
func TestAppendRouteWarmAllocFree(t *testing.T) {
	nw := MustNew(MS, 7, 1)
	cr := NewCachedRouter(nw, CacheConfig{})
	r := rand.New(rand.NewSource(17))
	u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
	dst := make([]gens.GenIndex, 0, 256)
	dst = cr.AppendRoute(dst[:0], u, v) // warm cache and pool
	if avg := testing.AllocsPerRun(200, func() {
		dst = cr.AppendRoute(dst[:0], u, v)
	}); avg != 0 {
		t.Fatalf("warm AppendRoute allocates %.1f objects per call, want 0", avg)
	}
}

// TestAppendRouteRanksWarmAllocFree guards the fully instrumented
// rank-addressed path — histogram observation, trace sampling check,
// and (for sampled pairs) the ring-buffer Record — end to end.
func TestAppendRouteRanksWarmAllocFree(t *testing.T) {
	nw := MustNew(MS, 7, 1)
	cr := NewCachedRouter(nw, CacheConfig{})
	dst := make([]gens.GenIndex, 0, 256)
	n := perm.Factorial(nw.K())
	// Route a spread of pairs, some of which the 1-in-64 sampler keeps,
	// so the guard covers the Record path too (Record copies into a
	// preallocated ring slot and must not allocate).
	ranks := make([]int64, 64)
	for i := range ranks {
		ranks[i] = int64(i*977) % n
	}
	for _, rk := range ranks { // warm cache and pool
		var err error
		if dst, err = cr.AppendRouteRanks(dst[:0], rk, (rk+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(400, func() {
		rk := ranks[i&63]
		i++
		dst, _ = cr.AppendRouteRanks(dst[:0], rk, (rk+1)%n)
	}); avg != 0 {
		t.Fatalf("warm AppendRouteRanks allocates %.2f objects per call, want 0", avg)
	}
}

// TestRouteManyIntoWarmAllocFree guards the call every serve job
// routes through: below the sequential cutoff, routing again into a
// caller-owned BulkRoutes must not allocate once warm.
func TestRouteManyIntoWarmAllocFree(t *testing.T) {
	nw := MustNew(MS, 7, 1)
	cr := NewCachedRouter(nw, CacheConfig{})
	n := perm.Factorial(nw.K())
	const pairs = 128
	srcs := make([]int64, pairs)
	dsts := make([]int64, pairs)
	for i := range srcs {
		srcs[i] = int64(i*977) % n
		dsts[i] = (srcs[i] + 1) % n
	}
	out := &BulkRoutes{}
	if err := cr.RouteManyInto(out, srcs, dsts); err != nil { // warm cache, pool, and out
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := cr.RouteManyInto(out, srcs, dsts); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm RouteManyInto allocates %.2f objects per batch, want 0", avg)
	}
}
