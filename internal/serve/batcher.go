// Package serve is the network front end of the routing engine: a
// request-batching pipeline that feeds `POST /route` and
// `POST /route/bulk` traffic into the bulk routing engine, with
// per-client token-bucket admission control, bounded-queue
// backpressure, always-on latency telemetry, and graceful drain.
//
// The pipeline is a channel-fed bounded queue of jobs (one job per
// HTTP request, carrying one or many rank pairs).  A flush worker
// takes a job plus only the jobs already queued, up to
// Config.MaxBatch pairs, routes them at once in one
// core.RouteManyInto call, and fans the result back out to the jobs.
// Nothing waits for company: a lone job routes immediately, and under
// load batches grow because jobs pile up while the workers route.
// Every buffer on the path — job, batch, bulk result — is pooled or
// worker-owned and reused, so the steady-state enqueue→flush cycle
// allocates nothing (the CI alloc guard pins this).
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
)

// Config tunes the batching pipeline.  The zero value of any field
// picks its default.
type Config struct {
	// MaxBatch ends a worker's drain of the queue once its batch holds
	// this many pairs (default 512 — under core's sequential-flush
	// cutoff, so a steady-state flush routes inline and alloc-free).
	MaxBatch int
	// QueueJobs bounds the intake queue in jobs; a full queue rejects
	// with ErrQueueFull, which the HTTP layer maps to 429 +
	// Retry-After (default 1024).
	QueueJobs int
	// Workers is the number of flush workers draining the queue
	// (default GOMAXPROCS).
	Workers int
	// MaxBulk caps the pairs one job may carry (default 65536); larger
	// submissions are rejected before admission.
	MaxBulk int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 512
	}
	if c.QueueJobs <= 0 {
		c.QueueJobs = 1024
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBulk <= 0 {
		c.MaxBulk = 65536
	}
	return c
}

// Sentinel errors of the admission path.  The HTTP layer maps
// ErrQueueFull to 429 + Retry-After and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("serve: batch queue full")
	ErrDraining  = errors.New("serve: draining, new admissions refused")
	ErrRankRange = errors.New("serve: rank out of range")
	ErrEmptyJob  = errors.New("serve: job carries no pairs")
	ErrTooLarge  = errors.New("serve: job exceeds the bulk pair cap")
)

// Job is one batched routing request: a list of (src, dst) rank pairs
// and, after Submit returns nil, the routed result.  Jobs come from
// the batcher's pool (NewJob) and go back with Release; between those
// two calls the submitting goroutine owns every slice exclusively.
type Job struct {
	srcs, dsts []int64
	lens       []int32
	steps      []gens.GenIndex
	err        error
	enq        time.Time
	done       chan *Job
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
	j.lens = j.lens[:0]
	j.steps = j.steps[:0]
	j.err = nil
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

// Lens returns the per-pair route lengths of a completed job (owned
// by the job; read before Release).
func (j *Job) Lens() []int32 { return j.lens }

// Steps returns the concatenated port routes of a completed job, in
// pair order (owned by the job; read before Release).
func (j *Job) Steps() []gens.GenIndex { return j.steps }

// Route returns the port route of pair i of a completed job.
func (j *Job) Route(i int) []gens.GenIndex {
	lo := 0
	for p := 0; p < i; p++ {
		lo += int(j.lens[p])
	}
	return j.steps[lo : lo+int(j.lens[i])]
}

// Batcher is the channel-fed batching pipeline in front of a routing
// engine (core.Router: the single-node CachedRouter or the sharded
// Engine — the pipeline is agnostic).
type Batcher struct {
	router core.Router
	cfg    Config
	n      int64 // rank-space size k!

	// mu serializes Submit's queue send against Close's queue close:
	// Submit holds the read side while checking draining and sending,
	// Close the write side while flipping draining and closing.
	mu       sync.RWMutex
	draining bool
	queue    chan *Job

	pool        sync.Pool // *Job
	queuedPairs atomic.Int64
	wg          sync.WaitGroup
}

// NewBatcher starts a batching pipeline over router with cfg
// (zero-value fields take defaults).  Close drains and stops it.
func NewBatcher(router core.Router, cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		router: router,
		cfg:    cfg,
		n:      perm.Factorial(router.Network().K()),
		queue:  make(chan *Job, cfg.QueueJobs),
	}
	b.pool.New = func() any { return &Job{done: make(chan *Job, 1)} }
	registerBatcher(b)
	b.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go b.worker(w)
	}
	return b
}

// Router returns the routing engine the batcher flushes into.
func (b *Batcher) Router() core.Router { return b.router }

// N returns the rank-space size (k!) submissions are validated
// against.
func (b *Batcher) N() int64 { return b.n }

// Config returns the effective (defaulted) configuration.
func (b *Batcher) Config() Config { return b.cfg }

// QueuedPairs returns the pairs admitted but not yet picked up by a
// flush worker.
func (b *Batcher) QueuedPairs() int64 { return b.queuedPairs.Load() }

// NewJob returns a pooled, empty job.
func (b *Batcher) NewJob() *Job {
	j := b.pool.Get().(*Job)
	j.Reset()
	return j
}

// Release returns a job to the pool.  The caller must not touch the
// job afterwards.
func (b *Batcher) Release(j *Job) { b.pool.Put(j) }

// Submit enqueues the job and blocks until its batch is flushed,
// returning nil with the results in j.Lens/j.Steps, or an admission
// error (ErrQueueFull, ErrDraining, ErrRankRange, ...) with the job
// untouched and still caller-owned.
//
// The admitted path (validate → try-send → wait) is the alloc-free
// steady state TestSubmitWarmAllocFree pins; //scg:noalloc makes the
// same claim statically, with the rejection branches suppressed by
// design.
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
	j.enq = time.Now()
	b.mu.RLock()
	if b.draining {
		b.mu.RUnlock()
		return ErrDraining
	}
	b.queuedPairs.Add(int64(len(j.srcs)))
	select {
	case b.queue <- j:
		b.mu.RUnlock()
	default:
		b.queuedPairs.Add(-int64(len(j.srcs)))
		b.mu.RUnlock()
		return ErrQueueFull
	}
	<-j.done
	return j.err
}

// Close drains the pipeline: new Submits are refused with
// ErrDraining, every already-admitted job completes and its Submit
// returns, and the flush workers exit.  Close blocks until the drain
// finishes, then takes the batcher off the queue-depth gauge's
// roster; it is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.draining {
		b.draining = true
		close(b.queue)
	}
	b.mu.Unlock()
	b.wg.Wait()
	unregisterBatcher(b)
}

// Draining reports whether the batcher has begun (or finished)
// draining.
func (b *Batcher) Draining() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.draining
}

// worker blocks for one job, then drains only the jobs already
// queued — until the batch holds MaxBatch pairs or a receive finds the
// queue empty — and flushes at once.  The batch slice, the
// concatenated rank buffers, and the bulk result are worker-owned and
// reused across flushes.
func (b *Batcher) worker(slot int) {
	defer b.wg.Done()
	var batch []*Job
	var srcs, dsts []int64
	out := &core.BulkRoutes{}
	for {
		j, ok := <-b.queue
		if !ok {
			return
		}
		j.jny.Mark(stQueueWait)
		batch = append(batch[:0], j)
		pairs := j.Pairs()
	collect:
		for pairs < b.cfg.MaxBatch {
			select {
			case j2, ok2 := <-b.queue:
				if !ok2 {
					break collect // closed: flush what was taken; the top receive returns
				}
				j2.jny.Mark(stQueueWait)
				batch = append(batch, j2)
				pairs += j2.Pairs()
			default:
				break collect
			}
		}
		srcs, dsts = b.flush(slot, batch, srcs, dsts, out)
	}
}

// flush concatenates the batch, routes it in one RouteManyInto call,
// splits the flat result back into the per-job buffers, and wakes
// every submitter.  It returns the (possibly regrown) concatenation
// buffers for reuse.  Steady state reuses every buffer — the other
// half of the enqueue→flush cycle TestSubmitWarmAllocFree pins.
//
//scg:noalloc
func (b *Batcher) flush(slot int, batch []*Job, srcs, dsts []int64, out *core.BulkRoutes) ([]int64, []int64) {
	now := time.Now()
	srcs, dsts = srcs[:0], dsts[:0]
	pairs := 0
	for _, j := range batch {
		srcs = append(srcs, j.srcs...)
		dsts = append(dsts, j.dsts...)
		pairs += j.Pairs()
		hQueueWaitNs.Observe(slot, uint64(now.Sub(j.enq)))
		j.jny.Mark(stBatchWait)
	}
	b.queuedPairs.Add(-int64(pairs))
	err := b.router.RouteManyInto(out, srcs, dsts) //scg:ignore noalloc -- interface call lint cannot see through: every core.Router's warm RouteManyInto is alloc-free, pinned by the CI alloc guards
	mBatches.IncAt(slot)
	hBatchPairs.Observe(slot, uint64(pairs))
	off := 0
	for _, j := range batch {
		j.err = err
		if err == nil {
			j.lens = j.lens[:0]
			j.steps = j.steps[:0]
			for p := 0; p < j.Pairs(); p++ {
				lo, hi := out.Offsets[off+p], out.Offsets[off+p+1]
				j.lens = append(j.lens, int32(hi-lo))
				j.steps = append(j.steps, out.Steps[lo:hi]...)
			}
			off += j.Pairs()
			mPairsServed.AddAt(slot, uint64(j.Pairs()))
		}
		j.jny.Mark(stRouteMany)
		j.done <- j
	}
	return srcs, dsts
}

// liveBatchers is the roster the queue-depth gauge aggregates over;
// Close removes a drained batcher, so none stays reachable from here.
var liveBatchers struct {
	mu   sync.Mutex
	list []*Batcher
}

func registerBatcher(b *Batcher) {
	liveBatchers.mu.Lock()
	liveBatchers.list = append(liveBatchers.list, b)
	liveBatchers.mu.Unlock()
}

func unregisterBatcher(b *Batcher) {
	liveBatchers.mu.Lock()
	if i := slices.Index(liveBatchers.list, b); i >= 0 {
		liveBatchers.list = slices.Delete(liveBatchers.list, i, i+1)
	}
	liveBatchers.mu.Unlock()
}

func init() {
	obs.Default.GaugeFunc("scg_serve_queue_pairs",
		"pairs admitted to serve batch queues and not yet picked up by a flush worker",
		func() float64 {
			liveBatchers.mu.Lock()
			defer liveBatchers.mu.Unlock()
			var total int64
			for _, b := range liveBatchers.list {
				total += b.QueuedPairs()
			}
			return float64(total)
		})
}
