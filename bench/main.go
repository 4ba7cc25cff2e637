// Command bench is the repository's benchmark: four fixed workloads
// driven from outside through the public layers — perm, core, tables,
// shard, serve, obs — over net/http loopback, with every end-to-end
// and per-layer metric named, united and bounded in BENCHMARK.json at
// the repository root.
//
// Run it from the repository root through bench/run.sh, which builds
// this module and execs the binary:
//
//	bash bench/run.sh --workload serve-hot-k8 --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload all                # every workload, untraced
//	bash bench/run.sh --workload offline-k9 --trace 1
//	bash bench/run.sh compare -base 'A/*.json' -head 'B/*.json' [-claim metric@workload]
//
// A run prints a text table and, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}; it writes its
// raw per-rep values to <out>/<workload>-seed<n>[-trace].json and, when
// traced, its spans to <out>/trace-<workload>.json.  It exits non-zero
// when any route fails verification.  See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: pairs, warm stream and arrival schedules derive from it")
	seconds := fs.Float64("seconds", 0, "measured seconds, split evenly over the timed phases (0 = run_seconds of the spec)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the cost ladder")
	out := fs.String("out", ".bench_build/results", "directory for the per-run JSON and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := runConfig{
		spec:    sp,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		outDir:  *out,
		commit:  os.Getenv("BENCH_COMMIT"),
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var todo []workload
	for _, l := range sp.Workloads {
		w, ok := findWorkload(l.Name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json names workload %q the benchmark does not define\n", l.Name)
			return 2
		}
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want all or one of %s)\n", *name, workloadNames(sp))
		return 2
	}
	code := 0
	for _, w := range todo {
		ok, err := runOne(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// runOne runs one workload, prints its table and summary line, and
// writes its files.  It reports whether the run was correct.
func runOne(w workload, cfg runConfig) (bool, error) {
	res, err := runWorkload(w, cfg)
	if err != nil {
		return false, err
	}
	metrics := cfg.spec.EndToEnd
	if cfg.trace {
		metrics = cfg.spec.PerLayer
	}
	names := make([]string, 0, len(metrics))
	for _, m := range metrics {
		names = append(names, m.Name)
	}
	printTable(os.Stdout, res, names)
	if err := writeResult(cfg.outDir, res); err != nil {
		return false, err
	}
	blob, ok := summaryLine(res, metrics)
	fmt.Println(string(blob))
	return ok, nil
}

func workloadNames(sp *spec) string {
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
