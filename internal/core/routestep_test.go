package core

import (
	"math/rand"
	"testing"

	"supercayley/internal/perm"
)

// TestNextStepIsRouteHead checks that StepOptions offers the head of
// the greedy route first, and nothing at the destination.
func TestNextStepIsRouteHead(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nw := randomNetwork(r)
		u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
		opts := nw.StepOptions(u, v)
		seq := nw.Route(u, v)
		if (len(opts) > 0) != (len(seq) > 0) {
			t.Fatalf("StepOptions has %d options but route has %d hops", len(opts), len(seq))
		}
		if len(seq) > 0 && !opts[0].Equal(seq[0]) {
			t.Fatalf("StepOptions head %s != route head %s on %s", opts[0].Name(), seq[0].Name(), nw.Name())
		}
	}
	// u == v has no next step.
	nw := MustNew(MS, 2, 2)
	id := perm.Identity(nw.K())
	if opts := nw.StepOptions(id, id); opts != nil {
		t.Fatalf("StepOptions at the destination must be nil, got %v", opts)
	}
}

func TestStepOptionsCoverSetGreedyFirst(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		nw := randomNetwork(r)
		u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
		if u.Equal(v) {
			continue
		}
		opts := nw.StepOptions(u, v)
		set := nw.Set()
		if len(opts) != set.Len() {
			t.Fatalf("%s: %d options, want every generator (%d)", nw.Name(), len(opts), set.Len())
		}
		greedy := nw.Route(u, v)[0]
		if !opts[0].Equal(greedy) {
			t.Fatalf("%s: options[0] = %s, want greedy %s", nw.Name(), opts[0].Name(), greedy.Name())
		}
		// Every set index appears exactly once.
		seen := make([]bool, set.Len())
		for _, g := range opts {
			idx := set.Index(g)
			if idx < 0 {
				t.Fatalf("%s: option %s not in the set", nw.Name(), g.Name())
			}
			if seen[idx] {
				t.Fatalf("%s: option index %d listed twice", nw.Name(), idx)
			}
			seen[idx] = true
		}
	}
}

func TestStepOptionsRankedByRemainingRoute(t *testing.T) {
	// The non-greedy options must be sorted by ascending length of the
	// route from the node they lead to, and every option must leave a
	// node from which routing still delivers (so a detour through any
	// option plus the recomputed route reaches the destination).
	r := rand.New(rand.NewSource(3))
	score := func(nw *Network, g interface{ Apply(perm.Perm) perm.Perm }, u, v perm.Perm) int {
		w := g.Apply(u)
		if w.Equal(v) {
			return 0
		}
		return len(nw.Route(w, v))
	}
	for trial := 0; trial < 50; trial++ {
		nw := randomNetwork(r)
		u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
		if u.Equal(v) {
			continue
		}
		opts := nw.StepOptions(u, v)
		for i := 2; i < len(opts); i++ {
			if score(nw, opts[i-1], u, v) > score(nw, opts[i], u, v) {
				t.Fatalf("%s: options[%d] (%s) ranked after a worse option", nw.Name(), i-1, opts[i-1].Name())
			}
		}
		// Detour soundness: from any option's endpoint the recomputed
		// route still delivers.
		for _, g := range opts {
			w := g.Apply(u)
			cur := w.Clone()
			for _, h := range nw.Route(w, v) {
				cur = h.Apply(cur)
			}
			if !cur.Equal(v) {
				t.Fatalf("%s: route after detour through %s fails", nw.Name(), g.Name())
			}
		}
	}
}
