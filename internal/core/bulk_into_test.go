package core

// RouteManyInto is the call every serve job routes through, so its
// contract gets its own differential: identical routes to
// RouteMany on every batch size (including sizes straddling the
// sequential cutoff), caller-owned buffers truncated and reused, and
// errors surfaced with the failing pair identified.

import (
	"math/rand"
	"testing"

	"supercayley/internal/perm"
)

func TestRouteManyIntoDifferential(t *testing.T) {
	nw := MustNew(MS, 2, 2)
	cr := NewCachedRouter(nw, CacheConfig{})
	n := perm.Factorial(nw.K())
	r := rand.New(rand.NewSource(9))

	out := &BulkRoutes{}
	for _, pairs := range []int{1, 2, 63, routeManySeqCutoff - 1, routeManySeqCutoff, routeManySeqCutoff + 117} {
		srcs := make([]int64, pairs)
		dsts := make([]int64, pairs)
		for i := range srcs {
			srcs[i], dsts[i] = r.Int63n(n), r.Int63n(n)
		}
		// Reuse the same out across sizes: the truncation contract is
		// part of what is under test.
		if err := cr.RouteManyInto(out, srcs, dsts); err != nil {
			t.Fatalf("RouteManyInto(%d pairs): %v", pairs, err)
		}
		want, err := cr.RouteMany(srcs, dsts)
		if err != nil {
			t.Fatalf("RouteMany(%d pairs): %v", pairs, err)
		}
		if out.Pairs() != want.Pairs() {
			t.Fatalf("%d pairs: RouteManyInto yields %d routes, RouteMany %d", pairs, out.Pairs(), want.Pairs())
		}
		for i := 0; i < pairs; i++ {
			a, b := out.Route(i), want.Route(i)
			if len(a) != len(b) {
				t.Fatalf("%d pairs: route %d lengths differ (%d vs %d)", pairs, i, len(a), len(b))
			}
			for p := range a {
				if a[p] != b[p] {
					t.Fatalf("%d pairs: route %d diverges at step %d", pairs, i, p)
				}
			}
		}
	}
}

func TestRouteManyIntoErrors(t *testing.T) {
	nw := MustNew(MS, 2, 2)
	cr := NewCachedRouter(nw, CacheConfig{})
	out := &BulkRoutes{}
	if err := cr.RouteManyInto(out, []int64{1, 2}, []int64{3}); err == nil {
		t.Error("mismatched slice lengths accepted")
	}
	if err := cr.RouteManyInto(out, []int64{0, 1 << 40}, []int64{1, 2}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}
