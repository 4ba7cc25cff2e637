#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  bench/ is a Go module
# of its own that imports the repository's packages through a replace
# directive, so it must run from the repository root:
#
#   bash bench/run.sh --workload serve-hot-k8 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare -base 'A/*.json' -head 'B/*.json'
#
# Every argument goes to the benchmark (see bench/README.md).  The
# build cache, the binary and the run files all stay in .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
  echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ are needed to build)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The go command keeps telemetry counters under the user config
# directory and defaults GOPATH to the home directory; both move here.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$out/scgbench" .

if [ -d .git ]; then
  BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
  export BENCH_COMMIT
fi
exec "$out/scgbench" "$@"
