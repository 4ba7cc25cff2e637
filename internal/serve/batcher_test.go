package serve

// Routing slots: a gated router holds every slot busy while jobs wait
// behind it, which makes the wait queue's shape deterministic.  Each
// job still routes alone, in its own RouteManyInto call.

import (
	"slices"
	"sync"
	"testing"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/perm"
)

// gatedRouter holds every RouteManyInto call until gate is closed,
// after sending the call's pair count on entered.
type gatedRouter struct {
	core.Router
	entered chan int
	gate    chan struct{}
}

func newGatedRouter(r core.Router) *gatedRouter {
	return &gatedRouter{Router: r, entered: make(chan int, 64), gate: make(chan struct{})}
}

func (g *gatedRouter) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	g.entered <- len(srcs)
	<-g.gate
	return g.Router.RouteManyInto(out, srcs, dsts)
}

// awaitWaiting blocks until exactly want jobs wait for a routing slot.
func awaitWaiting(b *Batcher, want int64) {
	for b.waiting.Load() != want {
		time.Sleep(50 * time.Microsecond)
	}
}

// submitChecked submits j on its own goroutine, checks that every
// route it gets back matches ref, and releases it.
func submitChecked(t *testing.T, wg *sync.WaitGroup, b *Batcher, ref *core.CachedRouter, j *Job) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer b.Release(j)
		if err := b.Submit(j); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		for p := range j.srcs {
			want, err := ref.AppendRouteRanks(nil, j.srcs[p], j.dsts[p])
			if err != nil {
				t.Errorf("reference route %d→%d: %v", j.srcs[p], j.dsts[p], err)
				return
			}
			if got := j.out.Route(p); !portsEqual(got, want) {
				t.Errorf("pair %d→%d routed %v, reference %v", j.srcs[p], j.dsts[p], got, want)
			}
		}
	}()
}

// TestEachJobRoutesAlone pins that jobs which pile up behind busy
// slots still leave one by one: every RouteManyInto call carries
// exactly one job's pairs.
func TestEachJobRoutesAlone(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	ref := core.NewCachedRouter(nw, core.CacheConfig{})
	g := newGatedRouter(core.NewCachedRouter(nw, core.CacheConfig{}))
	b := NewBatcher(g, Config{})
	defer b.Close()
	n := perm.Factorial(nw.K())
	slots := cap(b.slots)

	// Job i carries i pairs, so the pair count of a call names its job.
	// The first jobs take every slot; the rest wait behind them.
	const waiters = 5
	var wg sync.WaitGroup
	var want, got []int
	for i := 1; i <= slots+waiters; i++ {
		j := b.NewJob()
		for p := 0; p < i; p++ {
			j.AddPair(int64(7*i+p)%n, int64(13*i+5*p+3)%n)
		}
		submitChecked(t, &wg, b, ref, j)
		want = append(want, i)
		if i == slots {
			for s := 0; s < slots; s++ {
				got = append(got, <-g.entered)
			}
		}
	}
	awaitWaiting(b, waiters)
	close(g.gate)
	wg.Wait()
	close(g.entered)
	for pairs := range g.entered {
		got = append(got, pairs)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("RouteManyInto pair counts %v, want one call per job %v", got, want)
	}
}
