// Package benchenv captures the runtime provenance a benchmark run file
// must carry to be reproducible: numbers measured under a non-default
// garbage-collection regime (GOGC, GOMEMLIMIT) or an unexpected
// parallelism are not comparable to the defaults.  The benchmark in
// bench/ records Provenance in every run file it writes.
package benchenv

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// Provenance is the runtime regime a measurement was taken under.
type Provenance struct {
	Parallelism string `json:"parallelism"`
	GoMaxProcs  int    `json:"go_max_procs"`
	NumCPU      int    `json:"num_cpu"`
	GOGC        string `json:"gogc"`
	GoMemLimit  string `json:"gomemlimit"`
	// Shards is the shard-worker count of the engine under test; 1 for
	// the unsharded single-router paths.
	Shards int `json:"shards"`
}

// Capture snapshots the current runtime provenance with the given
// engine shard count (pass 1 for an unsharded router).
func Capture(shards int) Provenance {
	if shards < 1 {
		shards = 1
	}
	return Provenance{
		Parallelism: Parallelism(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GOGC:        GOGC(),
		GoMemLimit:  GOMEMLIMIT(),
		Shards:      shards,
	}
}

// Parallelism renders the standard host-parallelism line.
func Parallelism() string {
	return fmt.Sprintf("GOMAXPROCS=%d on %d logical CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// GOGC returns the effective collector target: the environment value
// when set, else the runtime default "100".
func GOGC() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// GOMEMLIMIT returns the effective soft memory limit in bytes, or
// "off" when unlimited.  debug.SetMemoryLimit with a negative
// argument is the documented read-only query.
func GOMEMLIMIT() string {
	lim := debug.SetMemoryLimit(-1)
	if lim == math.MaxInt64 {
		return "off"
	}
	return fmt.Sprintf("%d", lim)
}
