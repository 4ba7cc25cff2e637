//go:build !race

// The allocation-regression guard lives behind the !race tag for the
// same reason core's does: under the race detector sync.Pool
// deliberately drops items and allocation counts are inflated by
// instrumentation.

package serve

import (
	"testing"

	"supercayley/internal/core"
)

// TestSubmitWarmAllocFree pins the zero-alloc steady state of Submit:
// with a warm router and a pooled job reused across submissions,
// Submit must not allocate at all — validation, admission, the slot
// token, the RouteManyInto call into the job's routes, and the
// counters included.
func TestSubmitWarmAllocFree(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1) // k = 8, the snapshot protocol
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	b := NewBatcher(cr, Config{})
	defer b.Close()

	j := b.NewJob()
	// Warm every buffer on the path: the job's pair and route slices
	// and the router's cache and scratch pool for these pairs.
	pairs := [][2]int64{{0, 1}, {977, 40319}, {1234, 20160}, {40319, 0}}
	for r := 0; r < 8; r++ {
		for _, p := range pairs {
			j.Reset()
			j.AddPair(p[0], p[1])
			if err := b.Submit(j); err != nil {
				t.Fatalf("warm submit %d→%d: %v", p[0], p[1], err)
			}
		}
	}

	i := 0
	if avg := testing.AllocsPerRun(400, func() {
		p := pairs[i&3]
		i++
		j.Reset()
		j.AddPair(p[0], p[1])
		if err := b.Submit(j); err != nil {
			t.Fatalf("submit %d→%d: %v", p[0], p[1], err)
		}
	}); avg != 0 {
		t.Fatalf("warm Submit allocates %.2f objects per call, want 0", avg)
	}
	b.Release(j)
}
