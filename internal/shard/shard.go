// Package shard implements the sharded rank-space routing engine of
// ROADMAP item 5.  Routing in a super Cayley network depends only on
// the quotient w = v⁻¹∘u, so the pair rank space partitions cleanly:
// the dispatch key is the raw endpoint pair, src·N + dstRank, and
// splitmix64 over that key assigns each pair to exactly one of N
// shard workers, so the zipf head of real traffic scatters instead of
// piling onto shard 0.  Keying dispatch on the pair rather than the
// quotient rank is the hot-path win: a warm hit is served straight
// from the owning worker's cache without unranking either endpoint —
// the two UnrankInto divisions plus the compose/rank that otherwise
// dominate a warm route.  The quotient is only computed on a miss,
// where the worker's table or the greedy kernel resolves it (both key
// on the quotient, so pairs sharing a quotient still share table
// state).
//
// Each worker owns its own warm state — a pair-keyed route cache and,
// for banded configurations, its own routing table with a residency
// budget — plus plain per-shard counters, so workers share no mutable
// memory and the aggregate warm footprint scales linearly with N
// while each shard's stays bounded.  The single-dispatch Engine
// implements core.Router, the same surface as core.CachedRouter, so
// internal/serve, sim.Throughput, and comm drop in unchanged; both
// engines emit byte-identical routes, which the sharded-vs-unsharded
// differential in engine_test.go pins across all ten families.
//
// Residency per shard at k ≤ FastLaneMaxK defaults to one shared
// immutable dense fast-lane table (tiny, read-only, no reason to
// duplicate); k ≥ 10 — or ForceBanded, which `scg serve
// -shard-residency` sets — gives every shard a banded table under
// Config.ShardResidentBytes, with budget refusals declining to the
// shard's kernel.  Warm state lives in process memory only: a new
// engine starts cold.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/graph"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
	"supercayley/internal/tables"
)

// minTableBands is the floor on the number of banded-table bands per
// shard: enough granularity that a residency budget has bands to
// choose between, while bands stay large enough (n / bands ranks)
// that one fault warms a useful run of adjacent quotients.
const minTableBands = 256

// Config sizes an Engine.  The zero value is one shard with default
// cache geometry and auto residency — behaviorally a CachedRouter.
type Config struct {
	// Shards is the number of shard workers, rounded up to a power of
	// two; 0 → 1.
	Shards int
	// BandBits is the log2 size of a banded-table band (the fault
	// granule of each shard's table); 0 picks the largest size that
	// still yields at least minTableBands bands.
	BandBits uint
	// CacheShards and CacheEntries size each worker's route cache
	// (core.CacheConfig per worker — the per-worker cache is itself
	// lock-striped).  Zero picks 4 stripes of 1024 entries, so the
	// aggregate cache capacity grows linearly with Shards.
	CacheShards  int
	CacheEntries int
	// ShardResidentBytes bounds each worker's banded-table residency
	// (tables.Config.MaxResidentBytes); 0 = unlimited.  Ignored when
	// the engine runs a shared dense table.
	ShardResidentBytes int64
	// ForceBanded gives every shard its own banded table even at small
	// k where a shared dense table would win, so a per-shard residency
	// budget binds; `scg serve -shard-residency` sets it, and the
	// benchmark's serve-cold-k10 workload runs that configuration.
	ForceBanded bool
	// BuildWorkers parallelizes the dense build; 0 → GOMAXPROCS.
	BuildWorkers int
}

const (
	defaultCacheShards  = 4
	defaultCacheEntries = 1024
)

// autoBandBits returns the largest band size (in bits) that still cuts
// n ranks into at least minTableBands bands.
func autoBandBits(n int64) uint {
	bb := uint(0)
	for n>>(bb+1) >= minTableBands {
		bb++
	}
	return bb
}

// scratch is the per-route working set, pooled so concurrent dispatch
// allocates nothing once warm.  It mirrors core.RouteScratch but stays
// local: the shard engine normalizes pairs itself.
type scratch struct {
	u, v, inv, w perm.Perm
}

func newScratch(k int) *scratch {
	return &scratch{
		u:   make(perm.Perm, k),
		v:   make(perm.Perm, k),
		inv: make(perm.Perm, k),
		w:   make(perm.Perm, k),
	}
}

// worker is one shard: the warm state for its splitmix64 slice of the
// pair rank space.  Workers share no mutable memory; the counters
// are plain atomics read only by Stats.
type worker struct {
	id    int
	cache *core.RouteCache
	// table is the worker's banded table (nil when the engine runs a
	// shared dense table).
	table *tables.Table

	routes       atomic.Uint64
	tableServed  atomic.Uint64
	cacheServed  atomic.Uint64
	kernelServed atomic.Uint64
}

// Engine is the sharded routing engine.  It implements core.Router and
// is safe for concurrent use once New returns.
type Engine struct {
	nw   *core.Network
	n    int64
	mask uint64
	// dense is the shared immutable fast-lane table (k ≤ FastLaneMaxK
	// without ForceBanded), consulted by every worker; nil in banded
	// configurations.
	dense   *tables.Table
	workers []*worker
	scratch sync.Pool // *scratch
}

// New builds the engine.  The network must have k ≤ tables.BandedMaxK:
// dispatch keys are exact Lehmer ranks (the same bound as the cache's
// rank-keyed regime), which is the whole regime sharding targets —
// beyond it there is no rank space to partition.
func New(nw *core.Network, cfg Config) (*Engine, error) {
	k := nw.K()
	if k > tables.BandedMaxK {
		return nil, fmt.Errorf("shard: %s has k=%d, engine caps at k=%d (exact-rank dispatch)", nw.Name(), k, tables.BandedMaxK)
	}
	ns := cfg.Shards
	if ns <= 0 {
		ns = 1
	}
	np := 1
	for np < ns {
		np <<= 1
	}
	bb := cfg.BandBits
	if bb == 0 {
		bb = autoBandBits(nw.N())
	}
	e := &Engine{
		nw:   nw,
		n:    nw.N(),
		mask: uint64(np - 1),
	}
	ccfg := core.CacheConfig{Shards: cfg.CacheShards, ShardEntries: cfg.CacheEntries}
	if ccfg.Shards <= 0 {
		ccfg.Shards = defaultCacheShards
	}
	if ccfg.ShardEntries <= 0 {
		ccfg.ShardEntries = defaultCacheEntries
	}
	banded := cfg.ForceBanded || k > tables.FastLaneMaxK
	if !banded {
		t, err := tables.Build(nw, tables.Config{Mode: tables.ModeDense, Workers: cfg.BuildWorkers})
		if err != nil {
			return nil, err
		}
		e.dense = t
	}
	tb := bb
	if tb == 0 {
		tb = 1
	}
	for i := 0; i < np; i++ {
		w := &worker{id: i, cache: core.NewRouteCache(ccfg, true)}
		if banded {
			t, err := tables.Build(nw, tables.Config{
				Mode:             tables.ModeBanded,
				BandBits:         tb,
				Policy:           tables.FaultBuild,
				MaxResidentBytes: cfg.ShardResidentBytes,
				Workers:          1,
			})
			if err != nil {
				return nil, err
			}
			w.table = t
		}
		e.workers = append(e.workers, w)
	}
	e.scratch.New = func() any { return newScratch(k) }
	registerEngine(e)
	return e, nil
}

// Network returns the routed network.
func (e *Engine) Network() *core.Network { return e.nw }

// Shards returns the shard-worker count.
func (e *Engine) Shards() int { return len(e.workers) }

// workerOf returns the worker owning pair key key (src·N + dstRank —
// at most N²−1 < 2⁶³ for every supported k ≤ 12): splitmix64 scatters
// the zipf head of real traffic evenly across workers.
//
//scg:noalloc
func (e *Engine) workerOf(key uint64) *worker {
	return e.workers[splitmix64(key)&e.mask]
}

// splitmix64 is the same finalizer core's cache uses for stripe
// picking (cache.go); duplicated here because it is three lines of
// arithmetic, not an API.
//
//scg:noalloc
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AppendRouteRanks implements core.Router: dispatch on the raw pair
// key and serve a warm hit straight from the owning worker's cache —
// no unranking, no quotient, no rank.  Only a miss pays the fixed
// normalization cost, in appendCold.  Identical route bytes to
// CachedRouter.AppendRouteRanks by construction — every tier replays
// the same greedy factorization, and the route for a pair depends
// only on its quotient.
//
// The warm path (dispatch → cache hit) is the alloc-free steady state
// TestDispatchWarmAllocFree pins; //scg:noalloc makes the same claim
// statically, with the two cold branches suppressed by design.
//
//scg:noalloc
func (e *Engine) AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, error) {
	if src < 0 || src >= e.n || dstRank < 0 || dstRank >= e.n {
		return dst, fmt.Errorf("shard: rank pair (%d, %d) out of range [0, %d)", src, dstRank, e.n) //scg:ignore noalloc -- cold rejection path: a malformed pair may format its error
	}
	key := uint64(src)*uint64(e.n) + uint64(dstRank)
	// One sampled stage-timing decision per dispatch, sharing the route
	// tracer's hash so the timed pair set stays deterministic.
	timed := obs.RouteTrace.Sampled(key)
	var t0 int64
	if timed {
		t0 = obs.NowNs()
	}
	wk := e.workerOf(key)
	wk.routes.Add(1)
	mDispatch.IncAt(wk.id)
	if out, ok := wk.cache.Get(dst, key, nil); ok {
		wk.cacheServed.Add(1)
		mCacheServed.IncAt(wk.id)
		if timed {
			now := obs.NowNs()
			stDispatch.Observe(wk.id, uint64(now-t0))
			core.StageCacheHit.Observe(wk.id, uint64(now-t0))
		}
		return out, nil
	}
	return wk.appendCold(e, dst, key, src, dstRank, timed, t0), nil //scg:ignore noalloc -- cold miss path: appendCold promotes into the cache and allocates by design
}

// appendCold resolves a cache miss: the shared dense fast lane serves
// the pair straight from its rank slab (no UnrankInto divisions);
// otherwise the endpoints are unranked and the quotient walks the
// worker's banded table or falls to the greedy kernel.  Every
// resolved route is promoted into the worker's pair-keyed cache so
// the next dispatch of this pair is a pure cache hit — that Put is
// the one deliberate allocation here; the warm path above it is
// allocation-free, pinned by the guard in alloc_guard_test.go.
func (wk *worker) appendCold(e *Engine, dst []gens.GenIndex, key uint64, src, dstRank int64, timed bool, t0 int64) []gens.GenIndex {
	mark := len(dst)
	if d := e.dense; d != nil {
		var tw int64
		if timed {
			tw = obs.NowNs()
		}
		if out, ok := d.AppendRouteRanks(dst, src, dstRank); ok {
			wk.tableServed.Add(1)
			mTableServed.IncAt(wk.id)
			if timed {
				core.StageTableWalk.Observe(wk.id, uint64(obs.NowNs()-tw))
			}
			wk.cache.Put(key, nil, out[mark:])
			wk.coldObserve(timed, t0)
			return out
		}
	}
	s := e.scratch.Get().(*scratch)
	perm.UnrankInto(s.u, src)
	perm.UnrankInto(s.v, dstRank)
	s.v.InverseInto(s.inv)
	s.inv.ComposeInto(s.w, s.u)
	out, served := dst, false
	if t := wk.table; t != nil {
		var tw int64
		if timed {
			tw = obs.NowNs()
		}
		// A decline (a budget-refused start band) leaves w intact.
		out, served = t.AppendQuotientRoute(dst, s.w)
		if timed && served {
			core.StageTableWalk.Observe(wk.id, uint64(obs.NowNs()-tw))
		}
	}
	if served {
		wk.tableServed.Add(1)
		mTableServed.IncAt(wk.id)
	} else {
		var tk int64
		if timed {
			tk = obs.NowNs()
		}
		out = e.nw.AppendQuotientRoute(dst, s.w) // consumes w
		if timed {
			core.StageKernel.Observe(wk.id, uint64(obs.NowNs()-tk))
		}
		wk.kernelServed.Add(1)
		mKernelServed.IncAt(wk.id)
	}
	wk.cache.Put(key, nil, out[mark:])
	e.scratch.Put(s)
	wk.coldObserve(timed, t0)
	return out
}

// coldObserve closes out a timed cold dispatch: the whole resolution
// counts as both shard_dispatch and route_cache_miss time.
func (wk *worker) coldObserve(timed bool, t0 int64) {
	if !timed {
		return
	}
	now := obs.NowNs()
	stDispatch.Observe(wk.id, uint64(now-t0))
	core.StageCacheMiss.Observe(wk.id, uint64(now-t0))
}

// Stats implements core.Router by aggregating the per-worker cache
// counters; WorkerStats exposes the per-shard census.
func (e *Engine) Stats() core.CacheStats {
	var agg core.CacheStats
	for i, w := range e.workers {
		s := w.cache.Stats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Evictions += s.Evictions
		agg.Entries += s.Entries
		if i == 0 || s.MaxShardEntries > agg.MaxShardEntries {
			agg.MaxShardEntries = s.MaxShardEntries
		}
		if i == 0 || s.MinShardEntries < agg.MinShardEntries {
			agg.MinShardEntries = s.MinShardEntries
		}
	}
	return agg
}

// WorkerStat is one shard worker's census.
type WorkerStat struct {
	ID           int
	Routes       uint64
	TableServed  uint64
	CacheServed  uint64
	KernelServed uint64
	Cache        core.CacheStats
	// Table is the worker's banded-table census; zero-valued when the
	// engine runs a shared dense table (see Engine.DenseStats).
	Table tables.Stats
}

// WorkerStats returns the per-shard census in shard order.
func (e *Engine) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, len(e.workers))
	for i, w := range e.workers {
		out[i] = WorkerStat{
			ID:           w.id,
			Routes:       w.routes.Load(),
			TableServed:  w.tableServed.Load(),
			CacheServed:  w.cacheServed.Load(),
			KernelServed: w.kernelServed.Load(),
			Cache:        w.cache.Stats(),
		}
		if w.table != nil {
			out[i].Table = w.table.Stats()
		}
	}
	return out
}

// TableBytes returns the resident table payload across the engine:
// the shared dense table or the summed per-shard banded tables.
func (e *Engine) TableBytes() int64 {
	if e.dense != nil {
		return e.dense.Bytes()
	}
	var total int64
	for _, w := range e.workers {
		if w.table != nil {
			total += w.table.Bytes()
		}
	}
	return total
}

// RouteManyInto implements core.Router with the same sequential
// cutoff as CachedRouter: small batches (a serve job's steady state)
// route inline into caller-owned storage with zero allocations
// once warm, larger ones fan out through RouteMany.
func (e *Engine) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	if len(srcs) != len(dsts) {
		return fmt.Errorf("shard: RouteManyInto wants equal-length rank slices (%d vs %d)", len(srcs), len(dsts))
	}
	pairs := len(srcs)
	if pairs >= routeManySeqCutoff && graph.Parallelism(pairs) > 1 {
		res, err := e.RouteMany(srcs, dsts)
		if err != nil {
			return err
		}
		out.Offsets = append(out.Offsets[:0], res.Offsets...)
		out.Steps = append(out.Steps[:0], res.Steps...)
		return nil
	}
	out.Offsets = append(out.Offsets[:0], 0)
	out.Steps = out.Steps[:0]
	for i := 0; i < pairs; i++ {
		var err error
		out.Steps, err = e.AppendRouteRanks(out.Steps, srcs[i], dsts[i])
		if err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
		out.Offsets = append(out.Offsets, int64(len(out.Steps)))
	}
	return nil
}

// routeManySeqCutoff mirrors core's: below it the goroutine fan-out
// costs more than it saves.
const routeManySeqCutoff = 1024

// RouteMany implements core.Router: pair chunks fan out over
// graph.Parallelism workers, each appending into its own buffer, and
// the chunks concatenate in pair order.  Deterministic: scheduling
// picks which goroutine fills which chunk, never the bytes.
//
//scg:deterministic
func (e *Engine) RouteMany(srcs, dsts []int64) (*core.BulkRoutes, error) {
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("shard: RouteMany wants equal-length rank slices (%d vs %d)", len(srcs), len(dsts))
	}
	pairs := len(srcs)
	if pairs == 0 {
		return &core.BulkRoutes{Offsets: []int64{0}}, nil
	}
	workers := graph.Parallelism(pairs)
	chunk := (pairs + workers - 1) / workers
	bufs := make([][]gens.GenIndex, workers)
	lens := make([][]int32, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > pairs {
			hi = pairs
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			buf := make([]gens.GenIndex, 0, 64*(hi-lo))
			ln := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				mark := len(buf)
				var err error
				buf, err = e.AppendRouteRanks(buf, srcs[i], dsts[i])
				if err != nil {
					errs[w] = fmt.Errorf("pair %d: %w", i, err)
					return
				}
				ln = append(ln, int32(len(buf)-mark))
			}
			bufs[w] = buf
			lens[w] = ln
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &core.BulkRoutes{Offsets: make([]int64, pairs+1)}
	total := 0
	for _, buf := range bufs {
		total += len(buf)
	}
	out.Steps = make([]gens.GenIndex, 0, total)
	i := 0
	for w := range lens {
		for _, ln := range lens[w] {
			out.Offsets[i+1] = out.Offsets[i] + int64(ln)
			i++
		}
		out.Steps = append(out.Steps, bufs[w]...)
	}
	return out, nil
}

// The compile-time pin: Engine is a drop-in core.Router.
var _ core.Router = (*Engine)(nil)
