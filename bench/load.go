package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"supercayley/internal/sim"
)

// phase is the raw record of one timed phase.
type phase struct {
	Kind    string  `json:"kind"`
	Rep     int     `json:"rep"`
	Conns   int     `json:"conns"`
	Traced  bool    `json:"traced"`
	Seconds float64 `json:"seconds"`

	Requests     int64   `json:"requests"`
	Routes       int64   `json:"routes"`
	Failed       int64   `json:"failed"`
	Replayed     int     `json:"replayed"`
	ReplayFailed int     `json:"replay_failed"`
	FirstError   string  `json:"first_error,omitempty"`
	RoutesPerSec float64 `json:"routes_per_sec"`

	// Open-loop phases: offered rate, latency from due time, and how
	// late the generator sent, as percentiles of the phase's Samples.
	OfferedRate  float64 `json:"offered_routes_per_sec,omitempty"`
	Samples      int     `json:"samples,omitempty"`
	LatP50Ms     float64 `json:"lat_p50_ms,omitempty"`
	LatP90Ms     float64 `json:"lat_p90_ms,omitempty"`
	LatP99Ms     float64 `json:"lat_p99_ms,omitempty"`
	GenLateP50Ms float64 `json:"gen_late_p50_ms,omitempty"`
	GenLateP90Ms float64 `json:"gen_late_p90_ms,omitempty"`

	// Counters over the phase.
	CacheHitFrac      float64 `json:"cache_hit_frac"`
	EvictionsPerKpair float64 `json:"evictions_per_kpair"`
	AllocBPerRoute    float64 `json:"alloc_b_per_route"`
	GCPerS            float64 `json:"gc_per_s"`
	CPUCores          float64 `json:"cpu_cores"`
}

// runner drives timed phases against one warm system.
type runner struct {
	w       workload
	in      *inputs
	sys     *system
	callers []*caller
	cursor  atomic.Int64
	// tr, in the traced run, records a client span per batch while on.
	tr *tracer
}

// newRunner returns a runner with one caller per CPU, the most
// connections the benchmark opens.
func newRunner(w workload, in *inputs, sys *system, tr *tracer) *runner {
	r := &runner{w: w, in: in, sys: sys, tr: tr}
	for i := 0; i < runtime.NumCPU(); i++ {
		r.callers = append(r.callers, sys.newCaller(!w.offline))
	}
	return r
}

func (r *runner) closeCallers() {
	for _, c := range r.callers {
		c.closeIdle()
	}
}

// close closes the runner's connections and stops its system.
func (r *runner) close() error {
	r.closeCallers()
	return r.sys.close()
}

// next claims the pool offset of the next batch of bulk pairs.  Batches
// walk the pool in order and wrap to 0 only where the next batch would
// run past its end, so a pair recurs only a whole pool later, whatever
// batch sizes the phases before used: the route cache's hit fraction
// then depends on the workload alone.
func (r *runner) next(bulk int) int {
	pool := int64(len(r.in.srcs))
	for {
		c := r.cursor.Load()
		off := c
		if off+int64(bulk) > pool {
			off = 0
		}
		if r.cursor.CompareAndSwap(c, off+int64(bulk)) {
			return int(off)
		}
	}
}

// tally is one connection's share of a phase.
type tally struct {
	requests, routes, failed int64
	err                      error
	samples                  []sample
	lat, late                []float64 // ns
}

// one routes and verifies one batch.  due, when non-zero, is the
// open-loop send time latency is measured from.
func (r *runner) one(c *caller, bulk int, due time.Time, t *tally) {
	off := r.next(bulk)
	t.requests++
	if !due.IsZero() {
		t.late = append(t.late, float64(time.Since(due)))
	}
	tr := r.tr
	traced := tr != nil && tr.on.Load()
	var t0 int64
	if traced {
		c.reqID = tr.ids.Add(1)
		t0 = tr.now()
	}
	err := c.route(r.in.srcs[off:off+bulk], r.in.dsts[off:off+bulk])
	if traced {
		tr.record(span{kind: spanClient, start: t0, end: tr.now(), req: c.reqID, pairs: int32(bulk)})
		c.reqID = 0
	}
	if !due.IsZero() {
		t.lat = append(t.lat, float64(time.Since(due)))
	}
	if err == nil {
		err = c.verify(r.in, off, &t.samples)
	}
	if err != nil {
		t.failed++
		if t.err == nil {
			t.err = err
		}
		return
	}
	t.routes += int64(bulk)
}

// closedLoop keeps conns callers busy back to back for dur.
func (r *runner) closedLoop(conns, bulk int, dur time.Duration) []tally {
	out := make([]tally, conns)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var t tally
			for time.Now().Before(deadline) {
				r.one(r.callers[i], bulk, time.Time{}, &t)
			}
			out[i] = t
		}(i)
	}
	wg.Wait()
	return out
}

// openLoop sends batches of bulk pairs on a seeded Poisson schedule at
// rate routes/s for dur, fixed before the clock starts, over conns
// callers; each batch's latency runs from its due time.
func (r *runner) openLoop(conns, bulk int, rate float64, dur time.Duration, seed int64) []tally {
	reqRate := rate / float64(bulk)
	n := max(int(reqRate*dur.Seconds()+0.5), 1)
	due := sim.PoissonArrivals(n, reqRate, seed)
	out := make([]tally, conns)
	var claimed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := tally{lat: make([]float64, 0, n), late: make([]float64, 0, n)}
			for {
				j := int(claimed.Add(1) - 1)
				if j >= n {
					break
				}
				at := start.Add(due[j])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				r.one(r.callers[i], bulk, at, &t)
			}
			out[i] = t
		}(i)
	}
	wg.Wait()
	return out
}

// usage is the process counters a phase is bracketed by.
type usage struct {
	at                time.Time
	alloc, gcs        uint64
	cpu               time.Duration
	hits, misses, evs uint64
}

func (r *runner) usage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	st := r.sys.router.Stats()
	return usage{
		at:     time.Now(),
		alloc:  ms.TotalAlloc,
		gcs:    uint64(ms.NumGC),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		hits:   st.Hits,
		misses: st.Misses,
		evs:    st.Evictions,
	}
}

// run executes one phase, GC-fenced, and replays its sampled routes
// off the clock.
func (r *runner) run(p phase, fn func() []tally) phase {
	runtime.GC()
	u0 := r.usage()
	tallies := fn()
	u1 := r.usage()
	p.Seconds = u1.at.Sub(u0.at).Seconds()
	var lat, late []float64
	var samples []sample
	for _, t := range tallies {
		p.Requests += t.requests
		p.Routes += t.routes
		p.Failed += t.failed
		if t.err != nil && p.FirstError == "" {
			p.FirstError = t.err.Error()
		}
		lat = append(lat, t.lat...)
		late = append(late, t.late...)
		samples = append(samples, t.samples...)
	}
	p.RoutesPerSec = float64(p.Routes) / p.Seconds
	p.Samples = len(lat)
	if len(lat) > 0 {
		p.LatP50Ms = nsToMs(quantile(lat, 0.50))
		p.LatP90Ms = nsToMs(quantile(lat, 0.90))
		p.LatP99Ms = nsToMs(quantile(lat, 0.99))
		p.GenLateP50Ms = nsToMs(quantile(late, 0.50))
		p.GenLateP90Ms = nsToMs(quantile(late, 0.90))
	}
	if lookups := (u1.hits - u0.hits) + (u1.misses - u0.misses); lookups > 0 {
		p.CacheHitFrac = float64(u1.hits-u0.hits) / float64(lookups)
	}
	if p.Routes > 0 {
		p.EvictionsPerKpair = 1000 * float64(u1.evs-u0.evs) / float64(p.Routes)
		p.AllocBPerRoute = float64(u1.alloc-u0.alloc) / float64(p.Routes)
	}
	p.GCPerS = float64(u1.gcs-u0.gcs) / p.Seconds
	p.CPUCores = (u1.cpu - u0.cpu).Seconds() / p.Seconds
	p.Replayed = len(samples)
	p.ReplayFailed = replay(r.sys.nw, r.in, samples)
	return p
}

// capacity runs the closed-loop phase: every connection over HTTP, one
// caller of capBulk-pair batches offline.
func (r *runner) capacity(rep int, dur time.Duration) phase {
	conns, bulk := len(r.callers), r.w.bulk
	if r.w.offline {
		conns, bulk = 1, r.w.capBulk
	}
	return r.run(phase{Kind: "capacity", Rep: rep, Conns: conns}, func() []tally {
		return r.closedLoop(conns, bulk, dur)
	})
}

// warmup runs an untimed closed-loop phase half as long as a timed one,
// which settles connections, batcher workers and heap size; it is
// recorded, and verified, under kind "warmup".
func (r *runner) warmup(rep int, dur time.Duration) phase {
	p := r.capacity(rep, dur/2)
	p.Kind = "warmup"
	return p
}

// openPhase runs the open-loop phase at the lo or hi rate.
func (r *runner) openPhase(kind string, rep int, dur time.Duration, seed int64) phase {
	rate := r.w.lo
	if kind == "hi" {
		rate = r.w.hi
	}
	// Offline there is one caller, as in the simulators; a call that is
	// due while the previous one runs waits, and the wait counts.
	conns := len(r.callers)
	if r.w.offline {
		conns = 1
	}
	p := phase{Kind: kind, Rep: rep, Conns: conns, OfferedRate: rate}
	return r.run(p, func() []tally {
		return r.openLoop(conns, r.w.bulk, rate, dur, seed)
	})
}
