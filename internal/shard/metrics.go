package shard

// Telemetry for the sharded engine, registered on obs.Default in the
// repo's standard shape: dispatch-path counters are striped atomics
// indexed by shard id (each worker writes its own stripe — no shared
// cache line), and engine-level gauges walk a roster of live engines
// so the registry never holds an engine alive nor the hot path a lock.

import (
	"expvar"
	"sync"

	"supercayley/internal/obs"
)

var (
	mDispatch = obs.Default.Counter("scg_shard_dispatch_total",
		"routes dispatched to shard workers")
	mTableServed = obs.Default.Counter("scg_shard_table_served_total",
		"dispatched routes served by a shard's routing table")
	mCacheServed = obs.Default.Counter("scg_shard_cache_served_total",
		"dispatched routes served by a shard's route cache")
	mKernelServed = obs.Default.Counter("scg_shard_kernel_served_total",
		"dispatched routes computed by the greedy kernel")
)

// stDispatch times sampled dispatches end to end (hit or cold); the
// deeper cache/table/kernel stages come from internal/core's shared
// stage roster.
var stDispatch = obs.NewStage("shard_dispatch")

// liveEngines is the census roster behind the callback gauges.
var liveEngines struct {
	mu   sync.Mutex
	list []*Engine
}

func registerEngine(e *Engine) {
	liveEngines.mu.Lock()
	liveEngines.list = append(liveEngines.list, e)
	liveEngines.mu.Unlock()
}

func snapshotEngines() []*Engine {
	liveEngines.mu.Lock()
	out := append([]*Engine(nil), liveEngines.list...)
	liveEngines.mu.Unlock()
	return out
}

func init() {
	obs.Default.GaugeFunc("scg_shard_engines",
		"sharded engines built in this process", func() float64 {
			return float64(len(snapshotEngines()))
		})
	obs.Default.GaugeFunc("scg_shard_workers",
		"shard workers across all live engines", func() float64 {
			n := 0
			for _, e := range snapshotEngines() {
				n += len(e.workers)
			}
			return float64(n)
		})
	obs.Default.GaugeFunc("scg_shard_cache_entries",
		"warm route-cache entries across all shard workers", func() float64 {
			var n int
			for _, e := range snapshotEngines() {
				n += e.Stats().Entries
			}
			return float64(n)
		})
	expvar.Publish("scg_shards", expvar.Func(func() any {
		engines := snapshotEngines()
		out := make([][]WorkerStat, 0, len(engines))
		for _, e := range engines {
			out = append(out, e.WorkerStats())
		}
		return out
	}))
}
