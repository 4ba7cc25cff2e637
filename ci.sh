#!/bin/sh
# ci.sh — the tier-1 gate plus static checks and the race detector.
#
# The -race run matters: the CSR analytics engine (internal/graph)
# materializes Cayley graphs and sweeps BFS sources across a worker
# pool, and its differential tests (csr_test.go, csr_diff_test.go)
# exercise those parallel drivers end to end.
#
# Regenerate the benchmark snapshot separately (it is slow):
#   SCG_WRITE_BENCH=1 go test ./internal/graph -run WriteBenchSnapshot -v -timeout 30m
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

# The serve batching pipeline races Submit against Close by design;
# hammer the differential, drain, and backpressure suite under the
# race detector (TestHammerWhileDrain is the dropped/duplicated/
# misattributed-response gate).
echo "== go test -race ./internal/serve (batching pipeline)"
go test -race -count=2 ./internal/serve

# Routing-engine smoke: run every Route benchmark once, plus the
# allocation-regression guards (tagged !race — sync.Pool drops items
# under the race detector, so they cannot run in the -race pass).
# TestAppendRouteRanksWarmAllocFree is the telemetry gate: it proves
# the instrumented warm path (hop page + sampler) still allocates zero.
echo "== bench smoke (-bench=Route -benchtime=1x) + alloc guards"
go test -run='AllocFree$' -bench=Route -benchtime=1x ./internal/core

# Serve-pipeline alloc guard: the steady-state enqueue→flush cycle
# (pooled job, worker-owned batch buffers, sequential RouteManyInto)
# must stay at AllocsPerRun == 0.
echo "== serve pipeline alloc guard"
go test -run='AllocFree$' ./internal/serve

# Table-mode gates: the ten-family differential (table routes must be
# port-identical to the RouteInto kernel), the snapshot round-trip and
# corrupted-header rejection, and the AllocsPerRun==0 guard on the
# table lookup loop (tagged !race for the same pooled-scratch reason).
echo "== table-mode differential + snapshot round-trip + alloc guards"
go test -run='Differential|Snapshot' ./internal/tables
go test -run='AllocFree$' ./internal/tables

# Banded-table publication races: FaultBuild faulters racing each
# other's CAS publishes, FaultDecline readers racing a Prebuild
# warmer, and budget-refused walks substituting GreedyDim — every
# served route must stay byte-identical to the dense reference.
echo "== banded-table publication races (-race, count=2)"
go test -race -count=2 -run='^TestRace' ./internal/tables

# Sharded-engine gates: the ten-family sharded-vs-unsharded
# differential (shard.Engine must emit byte-identical routes to
# core.CachedRouter across every family and shard geometry), and the
# AllocsPerRun==0 guard on the warm dispatch ladder (tagged !race).
echo "== sharded-engine differential + persistence round-trip + alloc guard"
go test -race -run='TestEngineDifferentialTenFamilies|TestWarmRoundTrip' ./internal/shard
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

# Warm-restart smoke: boot a sharded server with a snapshot store,
# route through it, SIGTERM it (the drain writes the warm state), then
# boot a second server on the same store and check it reports a warm
# restart and still routes.
echo "== scg warm-restart smoke (serve -shards -store)"
# -shard-residency 64 under-provisions the 120-byte k=5 table so some
# walks decline into the route cache: the snapshot then carries BOTH
# table bands and cache entries.
"$tmpdir/scg" serve -addr 127.0.0.1:0 -shards 2 -shard-residency 64 -store "$tmpdir/warmstate" >"$tmpdir/serve2.log" 2>&1 &
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
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"srcs": [5, 7, 11], "dsts": [99, 3, 60]}' "http://$addr/route/bulk" >"$tmpdir/bulk2.json"
grep -q '"count":3' "$tmpdir/bulk2.json" || {
    echo "sharded /route/bulk did not answer all pairs: $(cat "$tmpdir/bulk2.json")" >&2
    exit 1
}
kill -TERM "$serve_pid"
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    if ! kill -0 "$serve_pid" 2>/dev/null; then break; fi
    sleep 0.25
done
serve_pid=""
grep -q 'drained warm state to' "$tmpdir/serve2.log" || {
    echo "sharded serve shutdown wrote no warm-state snapshot:" >&2
    cat "$tmpdir/serve2.log" >&2
    exit 1
}
"$tmpdir/scg" serve -addr 127.0.0.1:0 -shards 2 -shard-residency 64 -store "$tmpdir/warmstate" >"$tmpdir/serve3.log" 2>&1 &
serve_pid=$!
addr=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    addr=$(sed -n 's|^scg serve: routing .*, listening on http://||p' "$tmpdir/serve3.log")
    if [ -n "$addr" ]; then break; fi
    sleep 0.25
done
if [ -z "$addr" ]; then
    echo "restarted scg serve never reported its listen address:" >&2
    cat "$tmpdir/serve3.log" >&2
    exit 1
fi
grep -q 'warm restart from' "$tmpdir/serve3.log" || {
    echo "restarted serve did not report a warm restart:" >&2
    cat "$tmpdir/serve3.log" >&2
    exit 1
}
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"src": 5, "dst": 99}' "http://$addr/route" >"$tmpdir/route2.json"
grep -q '"ports"' "$tmpdir/route2.json" || {
    echo "restarted /route returned no ports: $(cat "$tmpdir/route2.json")" >&2
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

echo "== fuzz smoke"
go test -run='^$' -fuzz=FuzzLehmerRoundTrip -fuzztime=10s ./internal/perm
go test -run='^$' -fuzz=FuzzRouteDelivers -fuzztime=10s ./internal/core

echo "ci: all checks passed"
