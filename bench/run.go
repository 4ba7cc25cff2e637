package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"supercayley/internal/benchenv"
	"supercayley/internal/core"
)

// sizes are a run's input and buffer sizes.
type sizes struct {
	// pool is the measured pairs, cycled through by the phases.
	pool int
	// ladderPairs and ladderRequests size one rung pass of the ladder:
	// pairs for the routing rungs, requests for the serving rungs.
	ladderPairs, ladderRequests int
	// ladderReps is odd so each median is one rep's value.  A full-size
	// rung pass lasts tens of ms, so a host stall can spoil one; nine
	// reps outvote several.
	ladderReps int
	// spans is how many spans the traced run keeps.
	spans int
}

// sizesFor returns the full sizes, or the smoke test's toy ones.
func sizesFor(toy bool) sizes {
	if toy {
		return sizes{pool: 1 << 14, ladderPairs: 4096, ladderRequests: 16, ladderReps: 3, spans: 1 << 12}
	}
	return sizes{pool: 1 << 19, ladderPairs: 65536, ladderRequests: 128, ladderReps: 9, spans: 1 << 17}
}

// reps is how many times each timed phase runs, interleaved; an
// untraced run also sets the system up once per rep.
const reps = 5

// runConfig is one invocation's settings.
type runConfig struct {
	spec    *spec
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	commit  string
	// toy shrinks every workload to k = 5 or 6 for the smoke test.
	toy bool
	// wrap decorates the live router (the smoke test corrupts it).
	wrap wrapRouter
}

// result is one run's JSON file: raw per-rep values, the summaries the
// metrics are taken from, and provenance.
type result struct {
	Generated  string               `json:"generated"`
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      bool                 `json:"trace"`
	Commit     string               `json:"commit"`
	Provenance benchenv.Provenance  `json:"provenance"`
	Net        string               `json:"net"`
	Nodes      int64                `json:"nodes"`
	PhaseS     float64              `json:"phase_seconds"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	Errors     []string             `json:"errors,omitempty"`
	Phases     []phase              `json:"phases"`
	Ladder     map[string][]float64 `json:"ladder,omitempty"`
	Metrics    map[string]summary   `json:"metrics"`
}

// fail counts n failed operations under one message.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// metric summarizes values under name, with the unit BENCHMARK.json
// gives it (metrics it does not list are recorded without a unit).
func (r *result) metric(cfg runConfig, name string, values []float64) {
	m, _ := cfg.spec.metric(name)
	r.Metrics[name] = summarize(m.Unit, values)
}

// latency records a latency percentile: the median over reps of each
// rep's percentile of its own raw samples, so a rep the host disturbed
// does not move it, with N counting the samples of every rep.
func (r *result) latency(cfg runConfig, name, kind string, perRep func(phase) float64) {
	r.metric(cfg, name, pick(r.Phases, kind, false, perRep))
	s := r.Metrics[name]
	s.N = 0
	for _, p := range r.Phases {
		if p.Kind == kind && !p.Traced {
			s.N += p.Samples
		}
	}
	r.Metrics[name] = s
}

func pick(ps []phase, kind string, traced bool, f func(phase) float64) []float64 {
	var out []float64
	for _, p := range ps {
		if p.Kind == kind && p.Traced == traced {
			out = append(out, f(p))
		}
	}
	return out
}

func runWorkload(w workload, cfg runConfig) (*result, error) {
	if cfg.toy {
		w = w.toy()
	}
	nw, err := core.New(core.MS, w.l, 1)
	if err != nil {
		return nil, err
	}
	sz := sizesFor(cfg.toy)
	in := makeInputs(w, nw, cfg.seed, sz.pool)
	res := &result{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Workload:   w.name,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Commit:     cfg.commit,
		Provenance: benchenv.Capture(max(w.shards, 1)),
		Net:        nw.Name(),
		Nodes:      nw.N(),
		PhaseS:     cfg.seconds / (3 * reps),
		Metrics:    map[string]summary{},
	}
	dur := time.Duration(res.PhaseS * float64(time.Second))
	if cfg.trace {
		r, busy, err := tracedPhases(res, w, in, cfg, dur, sz.spans)
		if err != nil {
			return nil, err
		}
		defer r.sys.close()
		res.count()
		if err := layerMetrics(res, cfg, w, in, r.sys, r.tr, busy, sz); err != nil {
			return nil, err
		}
		return res, nil
	}
	// Set-up is timed reps times; the last system is the one measured.
	// Each set-up runs with its predecessors still in the heap: the
	// route-cache roster keeps every cache alive, so every run measures
	// alongside the same reps−1 retired systems.
	var setupS, heapMB []float64
	var sys *system
	for i := 0; i < reps; i++ {
		s, secs, heap, err := setUp(w, in, cfg.wrap, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS, heapMB = append(setupS, secs), append(heapMB, heap)
		if i < reps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		} else {
			sys = s
		}
	}
	r := newRunner(w, in, sys, nil)
	res.Phases = append(res.Phases, r.warmup(0, dur))
	for rep := 0; rep < reps; rep++ {
		res.Phases = append(res.Phases,
			r.capacity(rep, dur),
			r.openPhase("lo", rep, dur, openSeed(cfg.seed, rep, 0)),
			r.openPhase("hi", rep, dur, openSeed(cfg.seed, rep, 1)))
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	res.count()
	rps := func(p phase) float64 { return p.RoutesPerSec }
	res.metric(cfg, "throughput_rps", pick(res.Phases, "capacity", false, rps))
	for _, kind := range []string{"lo", "hi"} {
		res.latency(cfg, "p50_ms_"+kind, kind, func(p phase) float64 { return p.LatP50Ms })
		res.latency(cfg, "p90_ms_"+kind, kind, func(p phase) float64 { return p.LatP90Ms })
		res.latency(cfg, "p99_ms_"+kind, kind, func(p phase) float64 { return p.LatP99Ms })
	}
	res.metric(cfg, "setup_s", setupS)
	res.metric(cfg, "heap_mb", heapMB)
	return res, nil
}

// openSeed derives an open-loop phase's arrival schedule seed.
func openSeed(seed int64, rep, k int) int64 { return seed*1000 + int64(4*rep+k) }

// tracedPhases sets the system up once with the span wrappers and runs
// [capacity untraced, capacity, lo, hi traced] per rep; it returns the
// runner, whose system the caller closes, and per rep the route and
// handler busy fractions and mean batch pairs of the hi phase.
func tracedPhases(res *result, w workload, in *inputs, cfg runConfig, dur time.Duration, spans int) (*runner, [3][]float64, error) {
	var busy [3][]float64
	tr := newTracer(spans)
	wrap := func(r core.Router) core.Router {
		if cfg.wrap != nil {
			r = cfg.wrap(r)
		}
		return &tracedRouter{Router: r, t: tr}
	}
	sys, _, _, err := setUp(w, in, wrap, tr.handler)
	if err != nil {
		return nil, busy, fmt.Errorf("set-up: %w", err)
	}
	r := newRunner(w, in, sys, tr)
	nproc := runtime.NumCPU()
	res.Phases = append(res.Phases, r.warmup(0, dur))
	for rep := 0; rep < reps; rep++ {
		res.Phases = append(res.Phases, r.capacity(rep, dur))
		tr.on.Store(true)
		capT := r.capacity(rep, dur)
		lo := r.openPhase("lo", rep, dur, openSeed(cfg.seed, rep, 0))
		s0 := tr.sums()
		hi := r.openPhase("hi", rep, dur, openSeed(cfg.seed, rep, 1))
		s1 := tr.sums()
		tr.on.Store(false)
		for _, p := range []*phase{&capT, &lo, &hi} {
			p.Traced = true
		}
		res.Phases = append(res.Phases, capT, lo, hi)
		wall := hi.Seconds * float64(nproc) * 1e9
		busy[0] = append(busy[0], float64(s1.routeNs-s0.routeNs)/wall)
		busy[1] = append(busy[1], float64(s1.handlerNs-s0.handlerNs)/wall)
		if calls := s1.routeCalls - s0.routeCalls; calls > 0 {
			busy[2] = append(busy[2], float64(s1.routePairs-s0.routePairs)/float64(calls))
		}
	}
	r.closeCallers()
	return r, busy, nil
}

// count totals attempted and failed operations over every phase.
func (res *result) count() {
	for _, p := range res.Phases {
		res.Attempted += p.Requests + int64(p.Replayed)
		if p.Failed > 0 {
			res.fail(p.Failed, "%s rep %d: %d of %d requests failed, first: %s", p.Kind, p.Rep, p.Failed, p.Requests, p.FirstError)
		}
		if p.ReplayFailed > 0 {
			res.fail(int64(p.ReplayFailed), "%s rep %d: %d of %d sampled routes do not replay to their destination", p.Kind, p.Rep, p.ReplayFailed, p.Replayed)
		}
	}
}

// layerMetrics fills the per-layer metrics of a traced run from its
// phases and the cost ladder, and writes the spans.
func layerMetrics(res *result, cfg runConfig, w workload, in *inputs, sys *system, tr *tracer, busy [3][]float64, sz sizes) error {
	ps := res.Phases
	res.metric(cfg, "core.mean_hops", []float64{float64(in.totalRef) / float64(len(in.ref))})
	res.metric(cfg, "core.cache_hit_frac", pick(ps, "hi", true, func(p phase) float64 { return p.CacheHitFrac }))
	res.metric(cfg, "core.evictions_per_kpair", pick(ps, "hi", true, func(p phase) float64 { return p.EvictionsPerKpair }))
	res.metric(cfg, "serve.route_busy_frac", busy[0])
	res.metric(cfg, "serve.handler_busy_frac", busy[1])
	res.metric(cfg, "serve.batch_pairs", busy[2])
	res.metric(cfg, "net.gen_late_p50_ms", pick(ps, "lo", true, func(p phase) float64 { return p.GenLateP50Ms }))
	res.metric(cfg, "net.gen_late_p90_ms", pick(ps, "lo", true, func(p phase) float64 { return p.GenLateP90Ms }))
	res.metric(cfg, "runtime.alloc_b_per_route", pick(ps, "capacity", false, func(p phase) float64 { return p.AllocBPerRoute }))
	res.metric(cfg, "runtime.gc_per_s", pick(ps, "capacity", false, func(p phase) float64 { return p.GCPerS }))
	res.metric(cfg, "runtime.cpu_cores", pick(ps, "capacity", false, func(p phase) float64 { return p.CPUCores }))
	untraced := pick(ps, "capacity", false, func(p phase) float64 { return p.RoutesPerSec })
	traced := pick(ps, "capacity", true, func(p phase) float64 { return p.RoutesPerSec })
	res.metric(cfg, "trace.overhead_frac", []float64{1 - median(traced)/median(untraced)})

	l, err := newLadder(w, in, sys, tr, sz)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	v := l.rungs()
	res.Ladder = v
	if l.failed > 0 {
		res.fail(l.failed, "ladder: %d calls failed", l.failed)
	}
	reps := sz.ladderReps
	res.Attempted += int64(reps * 4 * sz.ladderRequests)
	diff := func(a, b string) []float64 {
		out := make([]float64, reps)
		for i := range out {
			out[i] = v[a][i] - v[b][i]
		}
		return out
	}
	for _, name := range []string{
		"perm.unrank_ns", "core.kernel_ns", "core.cache_hit_ns", "core.cache_miss_ns",
		"tables.walk_ns", "shard.dispatch_ns", "core.route_many_ns", "core.route_many_scaling",
		"net.client_ns", "net.loopback_ns",
		"tables.served_frac", "tables.resident_bytes", "shard.kernel_frac", "shard.imbalance",
	} {
		res.metric(cfg, name, v[name])
	}
	batcher := diff("submit_ns", "route_many_req_ns")
	codec := diff("handler_ns", "submit_ns")
	res.metric(cfg, "serve.batcher_ns", batcher)
	res.metric(cfg, "serve.codec_ns", codec)
	sums := make([]float64, reps)
	unexplained := make([]float64, reps)
	for i := range unexplained {
		sums[i] = v["net.client_ns"][i] + v["net.loopback_ns"][i] + codec[i] + batcher[i] + v["route_many_req_ns"][i]
		unexplained[i] = 1 - sums[i]/v["request_ns"][i]
	}
	v["rung_sum_ns"] = sums
	res.metric(cfg, "ladder.unexplained_frac", unexplained)
	ratio := func(on, off string) []float64 {
		out := make([]float64, reps)
		for i := range out {
			out[i] = v[on][i]/v[off][i] - 1
		}
		return out
	}
	res.metric(cfg, "obs.overhead_frac", ratio("hit_obs_on_ns", "hit_obs_off_ns"))
	res.metric(cfg, "obs.flight_overhead_frac", ratio("handler_flight_on_ns", "handler_flight_off_ns"))
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := tr.writeChrome(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// printTable writes the run's metrics as a text table, and for a traced
// run the ladder's reconciliation.
func printTable(out io.Writer, res *result, names []string) {
	fmt.Fprintf(out, "%s on %s (%d nodes), seed %d, %.2fs phases, %s\n", res.Workload, res.Net, res.Nodes, res.Seed, res.PhaseS, res.Provenance.Parallelism)
	fmt.Fprintf(out, "  %-28s %-9s %14s %14s %14s %6s\n", "metric", "unit", "value", "p25", "p75", "n")
	for _, name := range names {
		s, ok := res.Metrics[name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-28s %-9s %14.6g %14.6g %14.6g %6d\n", name, s.Unit, s.Value, s.P25, s.P75, s.N)
	}
	if res.Ladder != nil {
		// Medians of differences do not add up, so the sum is the median
		// of the per-rep sums, set beside the median request it explains.
		m := func(name string) float64 { return median(res.Ladder[name]) }
		fmt.Fprintf(out, "  ladder, ns/pair at GOMAXPROCS=1, medians of %d reps: client %.1f, loopback %.1f, codec %.1f, batcher %.1f, route_many %.1f; rung sum %.1f against one-connection request %.1f\n",
			len(res.Ladder["request_ns"]), m("net.client_ns"), m("net.loopback_ns"), res.Metrics["serve.codec_ns"].Value, res.Metrics["serve.batcher_ns"].Value,
			m("route_many_req_ns"), m("rung_sum_ns"), m("request_ns"))
	}
	fmt.Fprintf(out, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(out, "  FAIL %s\n", e)
	}
}

// line is the last line of standard output: the run's verdict and the
// spec's metrics of one kind.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine renders the line from res; a missing or non-finite metric
// makes the run incorrect.
func summaryLine(res *result, metrics []specMetric) ([]byte, bool) {
	l := line{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	for _, m := range metrics {
		s, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			l.Correct = false
			continue
		}
		l.Metrics[m.Name] = lineMetric{s.Value, s.Unit}
	}
	blob, _ := json.Marshal(l) // finite floats and strings always marshal
	return blob, l.Correct
}

func writeResult(dir string, res *result) error {
	kind := ""
	if res.Trace {
		kind = "-trace"
	}
	// The time stamp keeps repeated runs of one seed apart.
	name := fmt.Sprintf("%s-seed%d%s-%s.json", res.Workload, res.Seed, kind, time.Now().UTC().Format("20060102T150405.000"))
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(blob, '\n'), 0o644)
}
