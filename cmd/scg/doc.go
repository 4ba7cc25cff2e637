// Command scg is the command-line interface to the super Cayley graph
// library: inspect networks, route packets, print all-port emulation
// schedules, measure embeddings, play the ball-arrangement game,
// simulate communication tasks, serve routing traffic over HTTP, and
// observe the routing engine's always-on telemetry.
//
// Usage:
//
//	scg info      -family MS -l 4 -n 3
//	scg route     -family MS -l 2 -n 2 -from "(3 1 4 5 2)" -to "(1 2 3 4 5)"
//	scg schedule  -family Complete-RS -l 4 -n 3
//	scg embed     -family IS -k 5 -guest star
//	scg bag       -family MS -l 2 -n 2 -seed 7
//	scg tasks     -family MS -l 2 -n 2 -task mnb -model all-port
//	scg faults    -family MS -l 3 -n 2 -mode random -nodefrac 0.05 -linkfrac 0.05
//	scg stats     -family MS -l 7 -n 1 -pairs 20000
//	scg serve     -addr localhost:8650 -family MS -l 7 -n 1 -batch 512 -rate 500000
//	scg export    -family MS -l 2 -n 1 -out ms21.dot
//	scg compare
//
// Every subcommand in main.go is reproducible from its flags: all
// randomness flows from the -seed flag through seededRand, never from
// the global math/rand source or the clock, and the file-wide
// scg:deterministic directive there makes scglint enforce it.  The
// service and observability commands in serve.go (serve, stats) are
// the deliberate exception — serving HTTP and timing stages need the
// wall clock — and carry no directive.
//
// `scg serve` is the routing service (DESIGN.md §13): POST /route
// answers one JSON pair, POST /route/bulk answers many (JSON, or the
// binary application/x-scg-bulk frame), both fed through the
// internal/serve batching pipeline with per-client token-bucket
// admission (-rate, -burst) and graceful SIGINT drain (-drain-wait).
// It also exposes the internal/obs registry over HTTP: /metrics
// (Prometheus text format, per-stage scg_stage_* histograms and the
// -slo burn-rate gauges included), /metrics.json (the same snapshot
// as JSON), /trace/routes (the sampled route-trace ring),
// /trace/requests and /trace/chrome (the flight recorder's retained
// request journeys, as JSON and as a Chrome trace-event document —
// DESIGN.md §16), /debug/vars (expvar, including the scg_metrics,
// scg_route_cache and scg_flight maps), and /debug/pprof/* (the
// standard profiling handlers).  `scg stats` routes a seeded workload
// and dumps the registry once to stdout (-stages prints the cumulative
// stage table instead).
//
// Performance is measured by the repository's benchmark in bench/
// (bench/README.md), not by scg: it builds the router and service the
// way `scg serve` does, drives them open-loop over loopback, checks
// every route, and reports end-to-end latency and throughput plus a
// per-layer cost ladder (route_many, batcher, codec, loopback, client;
// obs.overhead_frac and obs.flight_overhead_frac for the telemetry).
package main
