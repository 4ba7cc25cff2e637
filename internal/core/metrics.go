package core

// Telemetry for the routing engine, registered on obs.Default.
//
// The hot path pays for one PLAIN increment per routed pair (plus the
// sampled-tracer hash check): hop observations accumulate in a private
// histogram page on the caller's pooled RouteScratch — exclusively
// owned, so no atomics — and flush to the shared striped histogram
// every hopFlushEvery routes.  Routes-total and hops-total fall out of
// the histogram's count and exact sum, and the cache
// hit/miss/eviction counters are NOT incremented per route — the
// shards already count under their own mutexes, so the registry reads
// them at snapshot time through callback metrics over a roster of
// live caches.  The one accuracy trade: a scratch value parked in its
// pool retains up to hopFlushEvery−1 unflushed observations, so
// scg_route_hops may trail the exact totals by that much per idle
// scratch (bounded by the pool population, ≈ GOMAXPROCS) — the price
// of holding the always-on telemetry under 2% of the warm route cost.

import (
	"expvar"
	"sync"

	"supercayley/internal/obs"
)

// routeHopMax sizes the exact hop histogram.  The emulation route of
// one star move expands to O(1) generators and greedy routing needs
// ≤ 2k−3 star moves, so 128 covers every family the experiments run
// (k ≤ 12) with a wide margin; longer routes land in overflow and
// still contribute exactly to the sum.
const routeHopMax = 128

// hopFlushEvery is the batch size of the scratch-local hop page: one
// ObserveBulk pass of striped atomics per this many routes.
const hopFlushEvery = 64

// observeHops batches one route-length observation into the scratch's
// private page.  The scratch is exclusively owned between Get and Put,
// so the increments are plain stores; only the periodic flush touches
// shared memory.
func (s *RouteScratch) observeHops(slot, hops int) {
	if !obs.Enabled() {
		return
	}
	b := hops
	if hops > routeHopMax {
		b = routeHopMax + 1
		s.hopOver += uint64(hops) // overflow values contribute exactly via the striped sum
	}
	s.hopPage[b]++
	s.hopPend++
	if s.hopPend >= hopFlushEvery {
		s.flushHops(slot)
	}
}

// flushHops merges the scratch page into the shared histogram on the
// stripe selected by slot and clears the page.
func (s *RouteScratch) flushHops(slot int) {
	mRouteHops.ObserveBulk(slot, s.hopPage[:], s.hopOver)
	clear(s.hopPage[:])
	s.hopOver = 0
	s.hopPend = 0
}

var (
	mRouteHops = obs.Default.HopHist("scg_route_hops",
		"hop counts of cached-router routes (count = routes, sum = total hops)", routeHopMax)
	mBulkCalls = obs.Default.Counter("scg_route_many_calls_total",
		"RouteMany bulk invocations")
	mBulkPairs = obs.Default.Counter("scg_route_many_pairs_total",
		"pairs routed through RouteMany")
	mKernelRoutes = obs.Default.Counter("scg_route_kernel_calls_total",
		"direct RouteInto kernel invocations (cache misses route here too)")
	mKernelSteps = obs.Default.Counter("scg_route_kernel_steps_total",
		"generator steps emitted by the RouteInto kernel")
	mScratchNew = obs.Default.Counter("scg_route_scratch_new_total",
		"RouteScratch values newly allocated by router pools (pool recycling keeps this flat)")
)

// Pipeline stages of the deep routing path, timed for route-trace
// sampled pairs (see RouteScratch.timed).  Exported so the shard
// engine attributes its per-worker cache and kernel time to the same
// stages; only the shard engine's tables time table_walk.
var (
	StageCacheHit  = obs.NewStage("route_cache_hit")
	StageCacheMiss = obs.NewStage("route_cache_miss")
	StageTableWalk = obs.NewStage("table_walk")
	StageKernel    = obs.NewStage("route_kernel")
)

// liveCaches is the roster the cache collectors aggregate over; every
// RouteCache registers itself at construction.
var liveCaches struct {
	mu   sync.Mutex
	list []*RouteCache
}

func registerCache(c *RouteCache) {
	liveCaches.mu.Lock()
	liveCaches.list = append(liveCaches.list, c)
	liveCaches.mu.Unlock()
}

// AggregateCacheStats sums CacheStats over every route cache built in
// this process (the shard imbalance fields take the extrema).
func AggregateCacheStats() CacheStats {
	liveCaches.mu.Lock()
	caches := append([]*RouteCache(nil), liveCaches.list...)
	liveCaches.mu.Unlock()
	var agg CacheStats
	for i, c := range caches {
		s := c.Stats()
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

func init() {
	obs.Default.CounterFunc("scg_route_cache_hits_total",
		"route-cache hits across all live caches", func() uint64 { return AggregateCacheStats().Hits })
	obs.Default.CounterFunc("scg_route_cache_misses_total",
		"route-cache misses across all live caches", func() uint64 { return AggregateCacheStats().Misses })
	obs.Default.CounterFunc("scg_route_cache_evictions_total",
		"route-cache LRU evictions across all live caches", func() uint64 { return AggregateCacheStats().Evictions })
	obs.Default.GaugeFunc("scg_route_cache_entries",
		"cached normalized routes across all live caches", func() float64 { return float64(AggregateCacheStats().Entries) })
	obs.Default.GaugeFunc("scg_route_cache_shard_max_entries",
		"largest shard population (imbalance ceiling)", func() float64 { return float64(AggregateCacheStats().MaxShardEntries) })
	obs.Default.GaugeFunc("scg_route_cache_shard_min_entries",
		"smallest shard population (imbalance floor)", func() float64 { return float64(AggregateCacheStats().MinShardEntries) })
	expvar.Publish("scg_route_cache", expvar.Func(func() any { return AggregateCacheStats() }))
}
