package serve

// Smart batching: with no flush deadline, a batch holds exactly the
// jobs that were already queued when its worker came for them.  A
// gated router holds the only worker busy while jobs queue behind it,
// which makes that batch shape deterministic.

import (
	"sync"
	"testing"
	"time"

	"supercayley/internal/core"
)

// gatedRouter holds its first RouteManyInto until gate is closed and
// records the pair count of every call.
type gatedRouter struct {
	core.Router
	entered chan struct{} // closed once the first call is holding
	gate    chan struct{}

	mu    sync.Mutex
	calls []int
}

func (g *gatedRouter) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	g.mu.Lock()
	first := len(g.calls) == 0
	g.calls = append(g.calls, len(srcs))
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.gate
	}
	return g.Router.RouteManyInto(out, srcs, dsts)
}

func (g *gatedRouter) callPairs() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.calls...)
}

// TestDrainCoalescesQueuedJobs pins both halves of smart batching on
// one worker: jobs that queue while the worker routes leave in one
// batch, and a lone job on an idle batcher flushes alone.
func TestDrainCoalescesQueuedJobs(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	ref := core.NewCachedRouter(nw, core.CacheConfig{})
	g := &gatedRouter{
		Router:  core.NewCachedRouter(nw, core.CacheConfig{}),
		entered: make(chan struct{}),
		gate:    make(chan struct{}),
	}
	b := NewBatcher(g, Config{MaxBatch: 64, Workers: 1})
	defer b.Close()
	n := b.N()

	// check submits j on its own goroutine and reports whether every
	// route it got back matches the direct router.
	var wg sync.WaitGroup
	check := func(j *Job) {
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
				if !portsEqual(j.Route(p), want) {
					t.Errorf("pair %d→%d routed %v, reference %v", j.srcs[p], j.dsts[p], j.Route(p), want)
				}
			}
		}()
	}

	// A 1-pair job occupies the worker inside the gated router.
	j := b.NewJob()
	j.AddPair(0, 1)
	check(j)
	<-g.entered

	// Five 2-pair jobs queue behind it.  QueuedPairs counts a job just
	// before its queue send, so wait for the sends to land as well.
	const jobs, pairsPerJob = 5, 2
	for i := 0; i < jobs; i++ {
		j := b.NewJob()
		for p := 0; p < pairsPerJob; p++ {
			j.AddPair(int64(7*i+p+2)%n, int64(13*i+5*p+3)%n)
		}
		check(j)
	}
	for b.QueuedPairs() != jobs*pairsPerJob || len(b.queue) != jobs {
		time.Sleep(50 * time.Microsecond)
	}
	close(g.gate)
	wg.Wait()
	if got := g.callPairs(); len(got) != 2 || got[0] != 1 || got[1] != jobs*pairsPerJob {
		t.Fatalf("RouteManyInto pair counts %v, want [1 %d]: the queued jobs did not leave as one batch", got, jobs*pairsPerJob)
	}

	// A lone job on the now idle batcher flushes alone.
	j = b.NewJob()
	j.AddPair(5, 99)
	j.AddPair(99, 5)
	j.AddPair(42, 7)
	check(j)
	wg.Wait()
	if got := g.callPairs(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("RouteManyInto pair counts %v, want a final lone batch of 3", got)
	}
}
