package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
	"supercayley/internal/serve"
	"supercayley/internal/shard"
	"supercayley/internal/tables"
)

// The cost ladder: the same warm pairs through each public call at
// GOMAXPROCS=1, in interleaved reps fenced by GC.  Every rung is in ns
// per pair.  The serving path's rungs (route_many, batcher, codec,
// loopback, client) are marginal by construction and add up to a
// one-connection request; the routing rungs below route_many (unrank,
// kernel, cache, table walk, shard dispatch) decompose it.

// hitPairs caps the distinct quotients of the cache rungs, so they fit
// the default cache.
const hitPairs = 16384

// ladder holds the rung inputs, computed off the clock.
type ladder struct {
	w     workload
	in    *inputs
	sys   *system
	tr    *tracer
	pairs int
	// requests is the serving rungs' request count per pass.
	requests int
	reps     int
	// perms holds, per pair, u, v and the quotient q = v⁻¹∘u back to back in
	// one pointer-free buffer.
	perms []uint8
	// steps and offs hold each pair's kernel route, for the replay rung.
	steps []gens.GenIndex
	offs  []int
	// distinct holds pool indices with pairwise distinct quotients, the
	// input of the cache-miss rung.
	distinct []int
	// served holds indices the standalone banded table serves.
	served []int
	table  *tables.Table
	engine *shard.Engine
	hit    *core.CachedRouter
	// bodies are the encoded requests of the serving rungs.
	bodies [][]byte
	// failed counts rung calls that returned an error or a non-200.
	failed int64
	buf    []gens.GenIndex
	out    core.BulkRoutes
}

func newLadder(w workload, in *inputs, sys *system, tr *tracer, sz sizes) (*ladder, error) {
	k := sys.nw.K()
	pairs := sz.ladderPairs
	l := &ladder{w: w, in: in, sys: sys, tr: tr, pairs: pairs, requests: sz.ladderRequests, reps: sz.ladderReps, buf: make([]gens.GenIndex, 0, 1024)}
	seen := map[int64]bool{}
	rs := core.NewRouteScratch(k)
	l.perms = make([]uint8, 3*k*pairs)
	inv := make(perm.Perm, k)
	for i := 0; i < pairs; i++ {
		u, v, q := l.u(i), l.v(i), l.q(i)
		perm.UnrankInto(u, in.srcs[i])
		perm.UnrankInto(v, in.dsts[i])
		v.InverseInto(inv)
		inv.ComposeInto(q, u)
		l.offs = append(l.offs, len(l.steps))
		l.steps = sys.nw.RouteInto(l.steps, u, v, rs)
		if r := q.Rank(); !seen[r] && len(l.distinct) < hitPairs {
			seen[r] = true
			l.distinct = append(l.distinct, i)
		}
	}
	l.offs = append(l.offs, len(l.steps))
	var err error
	l.table, err = tables.Build(sys.nw, tables.Config{Mode: tables.ModeBanded, Policy: tables.FaultBuild, MaxResidentBytes: w.residency, Workers: 1})
	if err != nil {
		return nil, err
	}
	w2 := make(perm.Perm, k)
	for i := 0; i < pairs; i++ {
		copy(w2, l.q(i))
		var ok bool
		if l.buf, ok = l.table.AppendQuotientRoute(l.buf[:0], w2); ok {
			l.served = append(l.served, i)
		}
	}
	// The engine `scg serve -shards N` would run: the live one when the
	// workload serves from it, else two shards at the workload's budget.
	l.engine = sys.engine
	if l.engine == nil {
		l.engine, err = shard.New(sys.nw, shard.Config{Shards: 2, ShardResidentBytes: w.residency, ForceBanded: w.residency > 0})
		if err != nil {
			return nil, err
		}
		l.dispatch()
	}
	l.hit = core.NewCachedRouter(sys.nw, core.CacheConfig{})
	l.cacheHit()
	if sys.svc == nil {
		if err := sys.listen(tr.handler); err != nil {
			return nil, err
		}
	}
	enc := &caller{json: w.jsonLane}
	for i := 0; i < l.requests; i++ {
		off := (i * w.bulk) % (len(in.srcs) - w.bulk)
		enc.encodeBody(in.srcs[off:off+w.bulk], in.dsts[off:off+w.bulk])
		l.bodies = append(l.bodies, append([]byte(nil), enc.body...))
	}
	return l, nil
}

// u, v and q return pair i's endpoints and quotient.
func (l *ladder) u(i int) perm.Perm { return l.pair(i, 0) }
func (l *ladder) v(i int) perm.Perm { return l.pair(i, 1) }
func (l *ladder) q(i int) perm.Perm { return l.pair(i, 2) }

func (l *ladder) pair(i, j int) perm.Perm {
	k := l.sys.nw.K()
	at := (3*i + j) * k
	return perm.Perm(l.perms[at : at+k])
}

// perPair times fn over n pairs and returns ns per pair.
func perPair(n int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func (l *ladder) unrank() float64 {
	k := l.sys.nw.K()
	u, v := make(perm.Perm, k), make(perm.Perm, k)
	return perPair(l.pairs, func() {
		for i := 0; i < l.pairs; i++ {
			perm.UnrankInto(u, l.in.srcs[i])
			perm.UnrankInto(v, l.in.dsts[i])
		}
	})
}

func (l *ladder) kernel() float64 {
	s := core.NewRouteScratch(l.sys.nw.K())
	return perPair(l.pairs, func() {
		for i := 0; i < l.pairs; i++ {
			l.buf = l.sys.nw.RouteInto(l.buf[:0], l.u(i), l.v(i), s)
		}
	})
}

// replay walks every pair's route from its source: the delivery check
// the throughput harnesses run per pair.
func (l *ladder) replay() float64 {
	k := l.sys.nw.K()
	dst, tmp := make(perm.Perm, k), make(perm.Perm, k)
	return perPair(l.pairs, func() {
		for i := 0; i < l.pairs; i++ {
			l.sys.nw.ReplayInto(dst, tmp, l.u(i), l.steps[l.offs[i]:l.offs[i+1]])
		}
	})
}

func (l *ladder) appendRanks(r interface {
	AppendRouteRanks([]gens.GenIndex, int64, int64) ([]gens.GenIndex, error)
}, idx []int) float64 {
	return perPair(len(idx), func() {
		for _, i := range idx {
			var err error
			if l.buf, err = r.AppendRouteRanks(l.buf[:0], l.in.srcs[i], l.in.dsts[i]); err != nil {
				l.failed++
			}
		}
	})
}

// cacheHit routes the distinct quotients through the warm hit router,
// repeated to about ladderPairs lookups; they fit its capacity, so every
// lookup after the first pass hits.
func (l *ladder) cacheHit() float64 {
	var idx []int
	for len(idx) < l.pairs {
		idx = append(idx, l.distinct...)
	}
	return l.appendRanks(l.hit, idx)
}

// cacheMiss routes the distinct quotients through a fresh router, so
// every lookup misses and inserts.
func (l *ladder) cacheMiss() float64 {
	return l.appendRanks(core.NewCachedRouter(l.sys.nw, core.CacheConfig{}), l.distinct)
}

func (l *ladder) walk() float64 {
	w := make(perm.Perm, l.sys.nw.K())
	if len(l.served) == 0 {
		return 0
	}
	return perPair(len(l.served), func() {
		for _, i := range l.served {
			copy(w, l.q(i))
			l.buf, _ = l.table.AppendQuotientRoute(l.buf[:0], w)
		}
	})
}

func (l *ladder) dispatch() float64 {
	idx := make([]int, l.pairs)
	for i := range idx {
		idx[i] = i
	}
	return l.appendRanks(l.engine, idx)
}

// routeMany routes the pairs through the live router in batches of
// bulk with one caller.
func (l *ladder) routeMany(bulk int) float64 {
	n := l.pairs - l.pairs%bulk
	return perPair(n, func() {
		for off := 0; off < n; off += bulk {
			if err := l.sys.base.RouteManyInto(&l.out, l.in.srcs[off:off+bulk], l.in.dsts[off:off+bulk]); err != nil {
				l.failed++
			}
		}
	})
}

// scaling is RouteManyInto throughput with the workload's concurrency
// at GOMAXPROCS=nproc over that of one caller at GOMAXPROCS=1: the
// batcher's nproc flush workers over HTTP, one caller offline.
func (l *ladder) scaling() float64 {
	nproc := runtime.NumCPU()
	bulk, callers := l.w.bulk, nproc
	if l.w.offline {
		bulk, callers = l.w.capBulk, 1
	}
	n := max(l.pairs-l.pairs%bulk, bulk)
	if n > len(l.in.srcs) {
		n = len(l.in.srcs) - len(l.in.srcs)%bulk
	}
	one := l.throughput(1, 1, bulk, n)
	all := l.throughput(nproc, callers, bulk, n)
	return all / one
}

func (l *ladder) throughput(procs, callers, bulk, n int) float64 {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	runtime.GC()
	var failed atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out core.BulkRoutes
			for off := 0; off < n; off += bulk {
				if err := l.sys.base.RouteManyInto(&out, l.in.srcs[off:off+bulk], l.in.dsts[off:off+bulk]); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	secs := time.Since(t0).Seconds()
	l.failed += failed.Load()
	return float64(callers*n) / secs
}

// submit sends the serving rungs' requests straight to the batcher.
func (l *ladder) submit() float64 {
	b := l.sys.svc.Batcher()
	bulk := l.w.bulk
	return perPair(l.requests*bulk, func() {
		for i := 0; i < l.requests; i++ {
			off := (i * bulk) % (len(l.in.srcs) - bulk)
			j := b.NewJob()
			for p := off; p < off+bulk; p++ {
				j.AddPair(l.in.srcs[p], l.in.dsts[p])
			}
			if err := b.Submit(j); err != nil {
				l.failed++
			}
			b.Release(j)
		}
	})
}

// serveHTTP sends the encoded requests through the mux in process.
func (l *ladder) serveHTTP() float64 {
	ct := serve.BulkContentType
	if l.w.jsonLane {
		ct = "application/json"
	}
	return perPair(l.requests*l.w.bulk, func() {
		for _, body := range l.bodies {
			req := httptest.NewRequest(http.MethodPost, "/route/bulk", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			l.sys.mux.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				l.failed++
			}
		}
	})
}

// loop runs one connection closed loop over loopback and returns the
// request time, the client's own encode and decode time, and the
// loopback time (Do minus the handler span), each in ns per pair.
func (l *ladder) loop(c *caller) (request, client, loopback float64) {
	bulk := l.w.bulk
	h0 := l.tr.sums()
	var enc, do, dec time.Duration
	for i := 0; i < l.requests; i++ {
		off := (i * bulk) % (len(l.in.srcs) - bulk)
		if err := c.route(l.in.srcs[off:off+bulk], l.in.dsts[off:off+bulk]); err != nil {
			l.failed++
		}
		enc, do, dec = enc+c.encode, do+c.do, dec+c.decode
	}
	l.tr.waitHandlers(h0.handlerCalls + int64(l.requests))
	handler := float64(l.tr.sums().handlerNs - h0.handlerNs)
	n := float64(l.requests * bulk)
	return float64(enc+do+dec) / n, float64(enc+dec) / n, (float64(do) - handler) / n
}

// rungs runs the ladder and returns every rung's per-rep values.
func (l *ladder) rungs() map[string][]float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	wasOn := l.tr.on.Load()
	l.tr.on.Store(true)
	defer l.tr.on.Store(wasOn)
	c := l.sys.newCaller(true)
	defer c.closeIdle()
	capBulk := l.w.bulk
	if l.w.offline {
		capBulk = l.w.capBulk
	}
	ws0 := l.engine.WorkerStats()
	v := map[string][]float64{}
	add := func(name string, fn func() float64) {
		runtime.GC()
		v[name] = append(v[name], fn())
	}
	for rep := 0; rep < l.reps; rep++ {
		add("perm.unrank_ns", l.unrank)
		add("core.kernel_ns", l.kernel)
		add("replay_ns", l.replay)
		add("core.cache_hit_ns", l.cacheHit)
		add("core.cache_miss_ns", l.cacheMiss)
		add("tables.walk_ns", l.walk)
		add("shard.dispatch_ns", l.dispatch)
		add("core.route_many_ns", func() float64 { return l.routeMany(capBulk) })
		add("route_many_req_ns", func() float64 { return l.routeMany(l.w.bulk) })
		add("submit_ns", l.submit)
		add("handler_ns", l.serveHTTP)
		var req, cli, lb float64
		add("request_ns", func() float64 {
			req, cli, lb = l.loop(c)
			return req
		})
		v["net.client_ns"] = append(v["net.client_ns"], cli)
		v["net.loopback_ns"] = append(v["net.loopback_ns"], lb)
		// Overhead brackets: the same rung with telemetry off, then on.
		obs.SetEnabled(false)
		add("hit_obs_off_ns", l.cacheHit)
		obs.SetEnabled(true)
		add("hit_obs_on_ns", l.cacheHit)
		obs.Flight.SetEnabled(false)
		add("handler_flight_off_ns", l.serveHTTP)
		obs.Flight.SetEnabled(true)
		add("handler_flight_on_ns", l.serveHTTP)
	}
	l.shardCensus(ws0, l.engine.WorkerStats(), v)
	runtime.GOMAXPROCS(prev)
	for rep := 0; rep < 3; rep++ {
		v["core.route_many_scaling"] = append(v["core.route_many_scaling"], l.scaling())
	}
	return v
}

// shardCensus derives the engine's table and kernel shares and its
// load imbalance from WorkerStats deltas over the ladder.
func (l *ladder) shardCensus(before, after []shard.WorkerStat, v map[string][]float64) {
	var routes, table, kernel, most uint64
	for i := range after {
		r := after[i].Routes - before[i].Routes
		routes += r
		most = max(most, r)
		table += after[i].TableServed - before[i].TableServed
		kernel += after[i].KernelServed - before[i].KernelServed
	}
	if routes == 0 {
		return
	}
	v["tables.served_frac"] = []float64{float64(table) / float64(routes)}
	v["shard.kernel_frac"] = []float64{float64(kernel) / float64(routes)}
	v["shard.imbalance"] = []float64{float64(most) * float64(len(after)) / float64(routes)}
	v["tables.resident_bytes"] = []float64{float64(l.engine.TableBytes())}
}
