// Observability subcommands: serve and stats.  They live outside
// main.go on purpose — main.go carries a file-wide scg:deterministic
// directive, and these commands legitimately touch the wall clock and
// the network, which that directive bans.

package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supercayley/internal/comm"
	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
	"supercayley/internal/serve"
	"supercayley/internal/shard"
	"supercayley/internal/sim"
)

// newServeMux wires the debug endpoints `scg serve` exposes.  Split
// from cmdServe so tests can drive it through httptest without
// binding a real listener.
func newServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(obs.Default.PrometheusText())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		blob, err := obs.Default.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
	})
	mux.HandleFunc("/trace/routes", func(w http.ResponseWriter, _ *http.Request) {
		events := obs.RouteTrace.Snapshot()
		if events == nil {
			events = []obs.TraceEvent{} // render an empty ring as [], not null
		}
		blob, err := json.MarshalIndent(events, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(blob, '\n'))
	})
	mux.HandleFunc("/trace/requests", func(w http.ResponseWriter, _ *http.Request) {
		events := obs.Flight.Snapshot()
		if events == nil {
			events = []obs.JourneyEvent{} // render an empty recorder as [], not null
		}
		blob, err := json.MarshalIndent(events, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(blob, '\n'))
	})
	mux.HandleFunc("/trace/chrome", func(w http.ResponseWriter, _ *http.Request) {
		// Chrome trace-event format: load in chrome://tracing or Perfetto.
		w.Header().Set("Content-Type", "application/json")
		w.Write(obs.Flight.ChromeTrace())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// routeWorkload routes a seeded zipfian workload through a fresh
// cached engine on nw, populating the registry, the route cache
// collectors, and the route tracer as a side effect.
func routeWorkload(nw *core.Network, pairs int, seed int64, skew float64) (sim.ThroughputResult, error) {
	nt, err := comm.SCGNet(nw)
	if err != nil {
		return sim.ThroughputResult{}, err
	}
	engine := comm.NewSCGEngine(nw)
	wl := sim.ZipfWorkload(nt.N(), pairs, seed, skew)
	return sim.Throughput(nt, engine.AppendRoute, wl)
}

// routeRankWorkload routes a seeded zipfian workload through a fresh
// cached router by Lehmer rank — the rank-addressed entry point is the
// one that samples the deep stage timers (cache hit, table walk,
// kernel), so `scg stats -stages` has a breakdown to print.
func routeRankWorkload(nw *core.Network, pairs int, seed int64, skew float64) (float64, error) {
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	nodes := perm.Factorial(nw.K())
	wl := sim.ZipfWorkload(int(nodes), pairs, seed, skew)
	var buf []gens.GenIndex
	t0 := time.Now()
	for i := 0; i < wl.Pairs(); i++ {
		var err error
		buf, err = cr.AppendRouteRanks(buf[:0], int64(wl.Srcs[i]), int64(wl.Dsts[i]))
		if err != nil {
			return 0, err
		}
	}
	return float64(wl.Pairs()) / time.Since(t0).Seconds(), nil
}

// serveFlags bundles the routing-service knobs of `scg serve` so the
// flag roster stays testable (the cmd drift test walks this
// function's AST).
type serveFlags struct {
	batch        *int
	maxWait      *time.Duration
	queue        *int
	workers      *int
	maxBulk      *int
	rate         *float64
	burst        *float64
	drainWait    *time.Duration
	slo          *time.Duration
	sloObjective *float64
}

func addServeFlags(fs *flag.FlagSet) *serveFlags {
	return &serveFlags{
		batch:        fs.Int("batch", 512, "flush a batch when its pair count reaches this"),
		maxWait:      fs.Duration("max-wait", 250*time.Microsecond, "flush a non-empty batch when its oldest job has waited this long"),
		queue:        fs.Int("queue", 1024, "bounded intake queue capacity in jobs (full queue answers 429)"),
		workers:      fs.Int("route-workers", 0, "flush workers draining the batch queue (0 = GOMAXPROCS)"),
		maxBulk:      fs.Int("max-bulk", 65536, "largest pair count one bulk request may carry"),
		rate:         fs.Float64("rate", 0, "per-client admission rate in pairs/sec (0 = no admission control)"),
		burst:        fs.Float64("burst", 0, "per-client token-bucket burst in pairs (0 = one second of -rate)"),
		drainWait:    fs.Duration("drain-wait", 5*time.Second, "graceful-shutdown budget for in-flight requests on SIGINT/SIGTERM"),
		slo:          fs.Duration("slo", 5*time.Millisecond, "request-latency SLO target backing the scg_slo_* burn-rate gauges (0 disables)"),
		sloObjective: fs.Float64("slo-objective", 0.99, "fraction of requests that must meet -slo (error budget = 1 - objective)"),
	}
}

func (sf *serveFlags) serviceConfig() serve.ServiceConfig {
	return serve.ServiceConfig{
		Batch: serve.Config{
			MaxBatch:  *sf.batch,
			MaxWait:   *sf.maxWait,
			QueueJobs: *sf.queue,
			Workers:   *sf.workers,
			MaxBulk:   *sf.maxBulk,
		},
		Limit: serve.LimitConfig{Rate: *sf.rate, Burst: *sf.burst},
	}
}

// shardFlags bundles the sharded-engine knobs of `scg serve`
// (AST-rostered like serveFlags).
type shardFlags struct {
	shards    *int
	store     *string
	residency *int64
}

func addShardFlags(fs *flag.FlagSet) *shardFlags {
	return &shardFlags{
		shards:    fs.Int("shards", 1, "shard workers partitioning the quotient rank space (rounded to a power of two; 1 = single-node router)"),
		store:     fs.String("store", "", "warm-state snapshot directory: restored on start, drained back on shutdown"),
		residency: fs.Int64("shard-residency", 0, "per-shard banded-table residency budget in bytes; > 0 also switches every shard to its own banded table (0 = unlimited, shared dense table at small k)"),
	}
}

// router builds what the flags describe: (nil, nil) at the defaults —
// the caller keeps its plain CachedRouter path — else a shard.Engine,
// warm-restored from -store when a snapshot is there.
func (shf *shardFlags) router(nw *core.Network) (core.Router, *shard.Engine, error) {
	if *shf.shards <= 1 && *shf.store == "" && *shf.residency == 0 {
		return nil, nil, nil
	}
	eng, err := shard.New(nw, shard.Config{
		Shards:             *shf.shards,
		ShardResidentBytes: *shf.residency,
		// A budget only binds banded tables, so asking for one asks
		// for the per-shard banded configuration.
		ForceBanded: *shf.residency > 0,
	})
	if err != nil {
		return nil, nil, err
	}
	if *shf.store != "" {
		st, err := shard.NewFileStore(*shf.store)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		rst, err := eng.RestoreFrom(st)
		switch {
		case errors.Is(err, shard.ErrNotFound):
			fmt.Printf("scg: no warm state in %s, starting cold\n", st.Dir())
		case err != nil:
			return nil, nil, fmt.Errorf("restoring warm state from %s: %w", st.Dir(), err)
		default:
			fmt.Printf("scg: warm restart from %s in %s (%d cache entries, %d table bytes, %d shard tables)\n",
				st.Dir(), time.Since(t0).Round(time.Millisecond), rst.CacheEntries, rst.TableBytes, rst.TablesLoaded)
		}
	}
	return eng, eng, nil
}

// snapshot drains the engine's warm state back into -store; a no-op
// without an engine or a store.
func (shf *shardFlags) snapshot(eng *shard.Engine) error {
	if eng == nil || *shf.store == "" {
		return nil
	}
	st, err := shard.NewFileStore(*shf.store)
	if err != nil {
		return err
	}
	t0 := time.Now()
	saved, err := eng.SaveTo(st)
	if err != nil {
		return fmt.Errorf("draining warm state to %s: %w", st.Dir(), err)
	}
	fmt.Printf("scg: drained warm state to %s in %s (%d cache entries, %d table bytes, %d artifacts)\n",
		st.Dir(), time.Since(t0).Round(time.Millisecond), saved.CacheEntries, saved.TableBytes, saved.Artifacts)
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8650", "listen address (use :0 for an ephemeral port)")
	sample := fs.Uint64("trace-sample", 64, "route-trace sampling interval (power of two; 1 = every route)")
	warm := fs.Int("warm", 0, "route this many seeded pairs on -family before serving (0 = none)")
	nf := addNetFlags(fs)
	sf := addServeFlags(fs)
	shf := addShardFlags(fs)
	seed := fs.Int64("seed", 1, "workload seed for -warm")
	skew := fs.Float64("skew", 1.2, "zipf exponent for -warm (> 1)")
	fs.Parse(args)
	if *sample == 0 || *sample&(*sample-1) != 0 {
		return fmt.Errorf("-trace-sample must be a power of two, got %d", *sample)
	}
	obs.RouteTrace.SetSampling(*sample)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	if *warm > 0 {
		res, err := routeWorkload(nw, *warm, *seed, *skew)
		if err != nil {
			return err
		}
		fmt.Printf("scg serve: warmed with %d pairs on %s (mean route len %.2f)\n",
			res.Pairs, nw.Name(), res.MeanRouteLen)
	}
	router, eng, err := shf.router(nw)
	if err != nil {
		return err
	}
	if router == nil {
		router = core.NewCachedRouter(nw, core.CacheConfig{})
	}
	// Rolling-window telemetry: the window ring's ticker feeds the
	// stage and SLO gauges; the SLO itself is optional (-slo 0).
	if *sf.slo > 0 {
		obs.NewSLO(obs.Default, obs.Windows, obs.SLOConfig{
			Hist:      "scg_serve_request_ns",
			LatencyNs: uint64(*sf.slo),
			Objective: *sf.sloObjective,
		})
	}
	obs.Windows.Start()
	svc := serve.NewService(router, sf.serviceConfig())
	mux := newServeMux()
	svc.RegisterOn(mux)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if eng != nil {
		fmt.Printf("scg serve: routing %s over %d shard(s), listening on http://%s\n",
			nw.Name(), eng.Shards(), ln.Addr())
	} else {
		fmt.Printf("scg serve: routing %s, listening on http://%s\n", nw.Name(), ln.Addr())
	}
	fmt.Println("scg serve: endpoints: /route /route/bulk /metrics /metrics.json /trace/routes /trace/requests /trace/chrome /debug/vars /debug/pprof/")

	// Graceful drain: on SIGINT/SIGTERM stop accepting connections,
	// let in-flight requests finish within -drain-wait, then drain the
	// batching pipeline (remaining batches flush, new admissions get
	// 503).
	srv := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		svc.Drain()
		if serr := shf.snapshot(eng); serr != nil && err == nil {
			err = serr
		}
		return err
	case <-ctx.Done():
		stop()
		fmt.Println("scg serve: shutting down (draining in-flight batches)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *sf.drainWait)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		svc.Drain()
		// The batch pipeline is quiet now, so the snapshot sees the
		// final warm state.
		if serr := shf.snapshot(eng); serr != nil && err == nil {
			err = serr
		}
		fmt.Println("scg serve: drained")
		return err
	}
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	nf := addNetFlags(fs)
	pairs := fs.Int("pairs", 20000, "routed (src, dst) pairs before the dump (0 = dump as-is)")
	seed := fs.Int64("seed", 1, "workload seed")
	skew := fs.Float64("skew", 1.2, "zipf exponent (> 1)")
	format := fs.String("format", "prom", "dump format: prom or json")
	stages := fs.Bool("stages", false, "print the per-stage latency breakdown instead of the metric dump (routes by rank so the sampled deep-stage timers fire)")
	fs.Parse(args)
	if *stages {
		if *pairs > 0 {
			nw, err := nf.network()
			if err != nil {
				return err
			}
			pps, err := routeRankWorkload(nw, *pairs, *seed, *skew)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "scg stats: routed %d rank pairs on %s (%.0f pairs/s)\n",
				*pairs, nw.Name(), pps)
		}
		fmt.Print("stage breakdown (cumulative):\n" + obs.FormatStageTable(obs.StageBreakdown(obs.Default.Snapshot())))
		return nil
	}
	if *pairs > 0 {
		nw, err := nf.network()
		if err != nil {
			return err
		}
		res, err := routeWorkload(nw, *pairs, *seed, *skew)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scg stats: routed %d pairs on %s (%.0f pairs/s, mean route len %.2f)\n",
			res.Pairs, nw.Name(), res.PairsPerSec, res.MeanRouteLen)
	}
	switch *format {
	case "prom":
		os.Stdout.Write(obs.Default.PrometheusText())
	case "json":
		blob, err := obs.Default.JSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(blob)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}
