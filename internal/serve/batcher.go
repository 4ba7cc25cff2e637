// Package serve is the network front end of the routing engine: it
// routes `POST /route` and `POST /route/bulk` traffic on the handler's
// own goroutine, with per-client token-bucket admission control, a
// bounded wait for a routing slot, always-on latency telemetry, and
// graceful drain.
//
// One HTTP request is one job carrying one or many rank pairs.  Submit
// validates the job, admits it, waits for one of GOMAXPROCS routing
// slots, and routes every pair in one core.RouteManyInto call into the
// job's own core.BulkRoutes.  A route depends only on its pair, so
// jobs share nothing that handing them to a common worker could
// amortize.  Jobs are pooled and their buffers reused, so the
// steady-state Submit allocates nothing (the CI alloc guard pins
// this).
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"supercayley/internal/core"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
)

// Config tunes the service's routing path.  The zero value of any
// field picks its default.
type Config struct {
	// QueueJobs bounds the jobs waiting for a routing slot; once that
	// many wait, the next job is rejected with ErrQueueFull, which the
	// HTTP layer maps to 429 + Retry-After (default 1024).
	QueueJobs int
	// MaxBulk caps the pairs one job may carry (default 65536); larger
	// submissions are rejected before admission.
	MaxBulk int
}

func (c Config) withDefaults() Config {
	if c.QueueJobs <= 0 {
		c.QueueJobs = 1024
	}
	if c.MaxBulk <= 0 {
		c.MaxBulk = 65536
	}
	return c
}

// Sentinel errors of the admission path.  The HTTP layer maps
// ErrQueueFull to 429 + Retry-After and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("serve: routing queue full")
	ErrDraining  = errors.New("serve: draining, new admissions refused")
	ErrRankRange = errors.New("serve: rank out of range")
	ErrEmptyJob  = errors.New("serve: job carries no pairs")
	ErrTooLarge  = errors.New("serve: job exceeds the bulk pair cap")
)

// Job is one routing request: a list of (src, dst) rank pairs and,
// after Submit returns nil, their routes in out.  Jobs come from the
// batcher's pool (NewJob) and go back with Release; between those two
// calls the submitting goroutine owns every slice exclusively.
type Job struct {
	srcs, dsts []int64
	out        core.BulkRoutes
	jny        obs.Journey
}

// Journey returns the job's embedded flight-recorder journey.  The
// HTTP handlers Begin it at request entry; jobs submitted without a
// Begin carry an inactive journey, whose marks are no-ops.
func (j *Job) Journey() *obs.Journey { return &j.jny }

// Reset empties the job for reuse, keeping its buffers.  The journey
// is deactivated so a recycled job cannot attribute marks to a
// previous request.
func (j *Job) Reset() {
	j.srcs = j.srcs[:0]
	j.dsts = j.dsts[:0]
	j.jny.Cancel()
}

// AddPair appends one (src, dst) rank pair.
func (j *Job) AddPair(src, dst int64) {
	j.srcs = append(j.srcs, src)
	j.dsts = append(j.dsts, dst)
}

// Pairs returns the number of pairs the job carries.
//
//scg:noalloc
func (j *Job) Pairs() int { return len(j.srcs) }

// Batcher admits jobs and routes each on its submitting goroutine
// through a core.Router (the single-node CachedRouter or the sharded
// Engine — either will do).
type Batcher struct {
	router core.Router
	cfg    Config
	n      int64 // rank-space size k!

	// slots holds the index of every idle routing slot; a job routes
	// while it holds one, so at most GOMAXPROCS jobs route at once.
	// waiting counts the jobs blocked on an empty slots channel.
	slots   chan int
	waiting atomic.Int64

	// mu serializes Submit's admission against Close: Submit holds the
	// read side while checking draining and counting itself in flight,
	// Close the write side while flipping draining, so once Close
	// waits on inflight no job can join it.
	mu       sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	pool sync.Pool // *Job
}

// NewBatcher returns a batcher over router with cfg (zero-value
// fields take defaults).  Close drains it.
func NewBatcher(router core.Router, cfg Config) *Batcher {
	b := &Batcher{
		router: router,
		cfg:    cfg.withDefaults(),
		n:      perm.Factorial(router.Network().K()),
		slots:  make(chan int, runtime.GOMAXPROCS(0)),
	}
	for s := 0; s < cap(b.slots); s++ {
		b.slots <- s
	}
	b.pool.New = func() any { return &Job{} }
	return b
}

// NewJob returns a pooled, empty job.
func (b *Batcher) NewJob() *Job {
	j := b.pool.Get().(*Job)
	j.Reset()
	return j
}

// Release returns a job to the pool.  The caller must not touch the
// job afterwards.
func (b *Batcher) Release(j *Job) { b.pool.Put(j) }

// Submit validates and admits the job, then routes it on the calling
// goroutine once a routing slot is free, returning nil with the routes
// in the job, or an admission error (ErrQueueFull, ErrDraining,
// ErrRankRange, ...) with the job untouched and still caller-owned.
//
// The admitted path (validate → admit → wait for a slot → route) is
// the alloc-free steady state TestSubmitWarmAllocFree pins;
// //scg:noalloc makes the same claim statically, with the rejection
// branches suppressed by design.
//
//scg:noalloc
func (b *Batcher) Submit(j *Job) error {
	if len(j.srcs) != len(j.dsts) {
		return fmt.Errorf("serve: job has %d srcs but %d dsts", len(j.srcs), len(j.dsts)) //scg:ignore noalloc -- cold rejection path: a malformed job may format its error
	}
	if len(j.srcs) == 0 {
		return ErrEmptyJob
	}
	if len(j.srcs) > b.cfg.MaxBulk {
		return fmt.Errorf("%w (%d > %d)", ErrTooLarge, len(j.srcs), b.cfg.MaxBulk) //scg:ignore noalloc -- cold rejection path: an oversized job may format its error
	}
	for i := range j.srcs {
		if j.srcs[i] < 0 || j.srcs[i] >= b.n || j.dsts[i] < 0 || j.dsts[i] >= b.n {
			return fmt.Errorf("%w: pair %d (%d, %d) outside [0, %d)", ErrRankRange, i, j.srcs[i], j.dsts[i], b.n) //scg:ignore noalloc -- cold rejection path: an out-of-range pair may format its error
		}
	}
	b.mu.RLock()
	if b.draining {
		b.mu.RUnlock()
		return ErrDraining
	}
	b.inflight.Add(1)
	b.mu.RUnlock()
	slot, ok := b.acquire()
	if !ok {
		b.inflight.Done()
		return ErrQueueFull
	}
	j.jny.Mark(stQueueWait)
	err := b.router.RouteManyInto(&j.out, j.srcs, j.dsts) //scg:ignore noalloc -- interface call lint cannot see through: every core.Router's warm RouteManyInto is alloc-free, pinned by the CI alloc guards
	if err == nil {
		mPairsServed.AddAt(slot, uint64(len(j.srcs)))
	}
	b.slots <- slot
	j.jny.Mark(stRouteMany)
	b.inflight.Done()
	return err
}

// acquire takes an idle routing slot, waiting for one when every slot
// is busy.  It reports false instead once QueueJobs jobs already wait.
//
//scg:noalloc
func (b *Batcher) acquire() (int, bool) {
	select {
	case slot := <-b.slots:
		return slot, true
	default:
	}
	if b.waiting.Add(1) > int64(b.cfg.QueueJobs) {
		b.waiting.Add(-1)
		return 0, false
	}
	slot := <-b.slots
	b.waiting.Add(-1)
	return slot, true
}

// Close drains the batcher: new Submits are refused with ErrDraining,
// and Close blocks until every already-admitted job has routed.  It is
// idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	b.inflight.Wait()
}
