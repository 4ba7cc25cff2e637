#!/bin/sh
# ci.sh — the tier-1 gate plus static checks and the race detector.
#
# The -race run matters: the CSR analytics engine (internal/graph)
# materializes Cayley graphs, samples symmetry sources and runs the
# masked 64-source BFS across a worker pool, and its tests
# (csr_test.go, csr_diff_test.go, csr_fault_test.go) exercise those
# parallel drivers end to end.
set -eu

echo "== go vet"
go vet ./...
# Explicitly re-run the two analyzers the parallel engines depend on
# hardest (copied sync primitives, pre-1.22-style loop captures), so a
# future change to vet's default set cannot silently drop them.
go vet -copylocks -loopclosure ./...

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

# scglint is the repo's own invariant suite (internal/lint): noalloc
# kernels and their call-graph closure, exhaustive family switches,
# deterministic drivers, scratch ownership, goroutine partitioning,
# atomic/lock hygiene and metric-registration discipline.  The text
# run is the gate (any unsuppressed finding fails); the SARIF run
# writes the machine-readable artifact for code-scanning upload and
# must stay byte-parseable even on a clean module.
echo "== scglint"
go run ./cmd/scglint -format=sarif ./... >scglint.sarif || true
go run ./cmd/scglint ./...

# The lint driver analyzes packages from a goroutine fan-out over
# shared module indexes; its own tests must stay clean under the race
# detector.
echo "== go test -race ./internal/lint (analyzer driver)"
go test -race ./internal/lint

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# Golden file for the five slow experiments (C2, C3, A1, A4, R1; about
# 50 s): the fast 25 are compared in every `go test`, these only here,
# outside the -race run.  The link guard builds every binary (bench/
# included) with inlining off and fails on a non-test function none of
# them links, unless testdata/unlinked.txt lists it with a reason.
echo "== slow experiments against experiments_output.txt + link guard"
SCG_GOLDEN_SLOW=1 go test -count=1 -run='^TestSlowExperimentsGolden$' ./internal/experiments
SCG_GOLDEN_SLOW=1 go test -count=1 -run='^TestEveryFunctionLinked$' .

# The fault-injection sweep fans pair walks out over a worker pool;
# hammer it specifically under the race detector with more iterations.
echo "== go test -race ./internal/sim (fault layer)"
go test -race -count=2 ./internal/sim/...

# The telemetry registry is written from every routing worker at once;
# hammer its concurrent counters/snapshots specifically (monotonicity
# and byte-identical quiesced snapshots live in TestConcurrentHammer,
# and the flight recorder's ring writers race its snapshot readers in
# TestFlightConcurrentHammer).
echo "== go test -race ./internal/obs (telemetry layer)"
go test -race -count=2 ./internal/obs

# Flight-recorder alloc guard: a full Begin → Mark → Finish journey,
# retain copy included, must stay at AllocsPerRun == 0 (tagged !race —
# the race runtime's instrumented atomics allocate).
echo "== flight recorder alloc guard"
go test -run='AllocFree$' ./internal/obs

# The serve batcher races Submit against Close by design; hammer the
# differential, drain, and backpressure suite under the race detector
# (TestHammerWhileDrain is the dropped/duplicated/misattributed-route
# gate).
echo "== go test -race ./internal/serve (routing slots + drain)"
go test -race -count=2 ./internal/serve

# Routing-engine smoke: run every Route benchmark once, plus the
# allocation-regression guards (tagged !race — sync.Pool drops items
# under the race detector, so they cannot run in the -race pass).
# TestAppendRouteRanksWarmAllocFree is the telemetry gate: it proves
# the instrumented warm path (hop page + sampler) still allocates zero.
echo "== bench smoke (-bench=Route -benchtime=1x) + alloc guards"
go test -run='AllocFree$' -bench=Route -benchtime=1x ./internal/core

# Serve alloc guard: a steady-state Submit (pooled job, slot token,
# sequential RouteManyInto into the job's routes) must stay at
# AllocsPerRun == 0.
echo "== serve Submit alloc guard"
go test -run='AllocFree$' ./internal/serve

# Table-mode gates: the ten-family differentials (dense, banded with
# and without a residency budget, and the rank lane: table routes must
# be port-identical to the RouteInto kernel), and the AllocsPerRun==0
# guards on the quotient and rank lookup loops (tagged !race).
echo "== table-mode differentials + alloc guards"
go test -run='Differential' ./internal/tables
go test -run='AllocFree$' ./internal/tables

# Banded-table publication races: faulters racing each other's CAS
# publishes, and budget-refused walks substituting GreedyDim — every
# served route must stay byte-identical to the dense reference.
echo "== banded-table publication races (-race, count=2)"
go test -race -count=2 -run='^TestRace' ./internal/tables

# Sharded-engine gates: the ten-family sharded-vs-unsharded
# differential (shard.Engine must emit byte-identical routes to
# core.CachedRouter across every family and shard geometry), and the
# AllocsPerRun==0 guard on the warm dispatch ladder (tagged !race).
echo "== sharded-engine differential + alloc guard"
go test -race -run='TestEngineDifferentialTenFamilies' ./internal/shard
go test -run='AllocFree$' ./internal/shard

# scg serve smoke: boot the routing service on an ephemeral port, then
# route through /route and /route/bulk and check /metrics exposes the
# route-cache and serve counters and the pprof handlers answer.
echo "== scg serve smoke"
tmpdir=$(mktemp -d)
serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ]; then
        kill "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$tmpdir"
}
trap cleanup EXIT
go build -o "$tmpdir/scg" ./cmd/scg
"$tmpdir/scg" serve -addr 127.0.0.1:0 >"$tmpdir/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    addr=$(sed -n 's|^scg serve: routing .*, listening on http://||p' "$tmpdir/serve.log")
    if [ -n "$addr" ]; then break; fi
    sleep 0.25
done
if [ -z "$addr" ]; then
    echo "scg serve never reported its listen address:" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
fi
# Route through the service before scraping, so the serve counters
# have moved.  Fetch to files before grepping: grep -q closing the
# pipe early would otherwise make curl report a spurious write error.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"src": 5, "dst": 99}' "http://$addr/route" >"$tmpdir/route.json"
grep -q '"ports"' "$tmpdir/route.json" || {
    echo "/route returned no ports: $(cat "$tmpdir/route.json")" >&2
    exit 1
}
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"srcs": [5, 7], "dsts": [99, 3]}' "http://$addr/route/bulk" >"$tmpdir/bulk.json"
grep -q '"count":2' "$tmpdir/bulk.json" || {
    echo "/route/bulk did not answer both pairs: $(cat "$tmpdir/bulk.json")" >&2
    exit 1
}
curl -fsS "http://$addr/metrics" >"$tmpdir/metrics.txt"
grep -q '^scg_route_cache_hits_total ' "$tmpdir/metrics.txt" || {
    echo "/metrics is missing scg_route_cache_hits_total" >&2
    exit 1
}
grep -q '^scg_serve_bulk_requests_total 1' "$tmpdir/metrics.txt" || {
    echo "/metrics did not count the bulk request" >&2
    exit 1
}
grep -q '^scg_stage_decode_ns_count ' "$tmpdir/metrics.txt" || {
    echo "/metrics is missing the per-stage histograms (scg_stage_decode_ns)" >&2
    exit 1
}
# The admitted path marks the wait for a routing slot and the routing
# call itself; both stages must have counted the requests above.
for stage in queue_wait route_many; do
    grep -Eq "^scg_stage_${stage}_ns_count [1-9]" "$tmpdir/metrics.txt" || {
        echo "/metrics shows no scg_stage_${stage}_ns observations" >&2
        exit 1
    }
done
# The flight recorder retains the requests just routed (the window
# tail is not yet full): /trace/requests must be a non-empty journey
# array and /trace/chrome a non-empty Chrome trace-event document.
curl -fsS "http://$addr/trace/requests" >"$tmpdir/trace.json"
jq -e 'type == "array" and length > 0 and (.[0] | has("spans"))' "$tmpdir/trace.json" >/dev/null || {
    echo "/trace/requests is not a non-empty journey array: $(cat "$tmpdir/trace.json")" >&2
    exit 1
}
curl -fsS "http://$addr/trace/chrome" >"$tmpdir/chrome.json"
jq -e '.traceEvents | length > 0' "$tmpdir/chrome.json" >/dev/null || {
    echo "/trace/chrome is not a non-empty trace-event document: $(cat "$tmpdir/chrome.json")" >&2
    exit 1
}
curl -fsS -o /dev/null "http://$addr/debug/pprof/cmdline" || {
    echo "/debug/pprof/cmdline did not answer" >&2
    exit 1
}
kill "$serve_pid" 2>/dev/null || true
serve_pid=""

# Sharded smoke: boot the service on the shard engine the -shards and
# -shard-residency flags build, check it reports both shards, and
# route a bulk request through it.  -shard-residency 64 gives each
# shard its own banded table under a budget below the 120-byte k=5
# table.
echo "== scg sharded smoke (serve -shards -shard-residency)"
"$tmpdir/scg" serve -addr 127.0.0.1:0 -shards 2 -shard-residency 64 >"$tmpdir/serve2.log" 2>&1 &
serve_pid=$!
addr=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    addr=$(sed -n 's|^scg serve: routing .*, listening on http://||p' "$tmpdir/serve2.log")
    if [ -n "$addr" ]; then break; fi
    sleep 0.25
done
if [ -z "$addr" ]; then
    echo "sharded scg serve never reported its listen address:" >&2
    cat "$tmpdir/serve2.log" >&2
    exit 1
fi
grep -q 'over 2 shard(s)' "$tmpdir/serve2.log" || {
    echo "sharded scg serve did not report 2 shards:" >&2
    cat "$tmpdir/serve2.log" >&2
    exit 1
}
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"srcs": [5, 7, 11], "dsts": [99, 3, 60]}' "http://$addr/route/bulk" >"$tmpdir/bulk2.json"
grep -q '"count":3' "$tmpdir/bulk2.json" || {
    echo "sharded /route/bulk did not answer all pairs: $(cat "$tmpdir/bulk2.json")" >&2
    exit 1
}
kill "$serve_pid" 2>/dev/null || true
serve_pid=""

# Benchmark smoke: the bench module's own test runs all four workloads
# at toy size, checks every route, and proves a port-corrupting router
# fails the run.  bench/ is a separate Go module, so the root
# `go test ./...` above does not include it.
echo "== benchmark smoke (cd bench && go test ./...)"
(cd bench && go test ./...)

# Go minimizes each new interesting input for up to 60 s by default,
# reporting no progress meanwhile, which stalled 10 s runs at 0
# execs/s; -fuzzminimizetime=1x keeps the budget on fuzzing.  A
# crasher still fails the step and lands in testdata, unminimized.
echo "== fuzz smoke"
go test -run='^$' -fuzz=FuzzLehmerRoundTrip -fuzztime=10s -fuzzminimizetime=1x ./internal/perm
go test -run='^$' -fuzz=FuzzRouteDelivers -fuzztime=10s -fuzzminimizetime=1x ./internal/core
# The request decoders read bytes off the network: /route's on its
# pure entry, the two bulk decoders on their pure entries and through
# the /route/bulk handler.
go test -run='^$' -fuzz='^FuzzDecodeRouteJSON$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
go test -run='^$' -fuzz='^FuzzDecodeBulkBinary$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
go test -run='^$' -fuzz='^FuzzDecodeBulkJSON$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
go test -run='^$' -fuzz='^FuzzBulkBinary$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
go test -run='^$' -fuzz='^FuzzBulkJSON$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve

echo "ci: all checks passed"
