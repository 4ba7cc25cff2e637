package serve

// Concurrency contract of the batcher, meant for the race detector:
// many goroutine clients hammer Submit while Close drains mid-storm.
// Every Submit must resolve exactly one way — a correct result or a
// clean admission error — with no dropped, duplicated, or
// misattributed responses, and the served-pairs counter must account
// for exactly the accepted submissions.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
)

// counterValue reads one counter out of a registry snapshot.
func counterValue(t *testing.T, snap obs.Snapshot, name string) uint64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

// TestHammerWhileDrain races G clients against a mid-storm Close.
// Each client submits jobs whose pairs encode the client's identity
// (src = client's own rank), so a route that reached the wrong job
// cannot match its reference route.  A short wait queue makes some
// submissions fail with ErrQueueFull as well as ErrDraining.
func TestHammerWhileDrain(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	ref := core.NewCachedRouter(nw, core.CacheConfig{})
	n := perm.Factorial(nw.K())

	const clients = 8
	const jobsPerClient = 200

	before := obs.Default.Snapshot()
	b := NewBatcher(cr, Config{QueueJobs: 3})

	var accepted, refused, pairsAccepted atomic.Int64
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for jn := 0; jn < jobsPerClient; jn++ {
				j := b.NewJob()
				// Pairs unique to this client: src carries the identity,
				// dst walks the rank space.
				pairs := 1 + int(id+int64(jn))%3
				for p := 0; p < pairs; p++ {
					j.AddPair(id, (id+int64(jn*3+p)+1)%n)
				}
				err := b.Submit(j)
				switch {
				case err == nil:
					accepted.Add(1)
					pairsAccepted.Add(int64(pairs))
					for p := 0; p < pairs; p++ {
						want, err := ref.AppendRouteRanks(nil, j.srcs[p], j.dsts[p])
						if err != nil {
							errc <- fmt.Errorf("client %d reference: %w", id, err)
							return
						}
						if got := j.out.Route(p); !portsEqual(got, want) {
							errc <- fmt.Errorf("client %d job %d pair %d→%d misattributed: got %v, want %v",
								id, jn, j.srcs[p], j.dsts[p], got, want)
							return
						}
					}
					b.Release(j)
				case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining):
					refused.Add(1)
					b.Release(j)
				default:
					errc <- fmt.Errorf("client %d job %d: unexpected error %v", id, jn, err)
					return
				}
			}
		}(int64(g))
	}

	// Drain mid-storm: close once real traffic has flowed (a fixed
	// sleep is scheduler-dependent under the race detector on small
	// hosts), so the batcher must refuse the stragglers with
	// ErrDraining yet complete every already-admitted job.
	for accepted.Load() < 50 && accepted.Load()+refused.Load() < clients*jobsPerClient {
		time.Sleep(100 * time.Microsecond)
	}
	b.Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if got := accepted.Load() + refused.Load(); got != clients*jobsPerClient {
		t.Fatalf("submissions unaccounted for: %d accepted + %d refused != %d",
			accepted.Load(), refused.Load(), clients*jobsPerClient)
	}
	if accepted.Load() == 0 {
		t.Fatal("drain landed before any submission was accepted; hammer proved nothing")
	}
	if err := b.Submit(func() *Job { j := b.NewJob(); j.AddPair(0, 1); return j }()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Close returned %v, want ErrDraining", err)
	}

	// The served-pairs counter is exact: the batcher served every pair
	// it admitted and no other.
	after := obs.Default.Snapshot()
	dServed := counterValue(t, after, "scg_serve_pairs_served_total") - counterValue(t, before, "scg_serve_pairs_served_total")
	if dServed != uint64(pairsAccepted.Load()) {
		t.Errorf("scg_serve_pairs_served_total moved by %d, but %d pairs were accepted", dServed, pairsAccepted.Load())
	}
}

// TestCloseIdempotent pins that NewBatcher starts no goroutine, that
// double Close neither panics nor deadlocks, and that an idle batcher
// drains instantly.
func TestCloseIdempotent(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	before := runtime.NumGoroutine()
	b := NewBatcher(cr, Config{})
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("NewBatcher started %d goroutines, want none", got-before)
	}
	done := make(chan struct{})
	go func() {
		b.Close()
		b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("double Close did not return")
	}
}
