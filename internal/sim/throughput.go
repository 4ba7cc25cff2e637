package sim

// Bulk routing throughput: seeded pair workloads (uniform and
// zipfian) and a parallel driver that routes every pair through a
// compact-index routing engine, verifies delivery against the
// network's neighbor tables, and reports pairs-per-second.  The
// workload generators also seed the repository benchmark (bench/);
// its per-layer ladder, not this driver, is the measurement of record,
// because the delivery replay here runs inside the timed loop
// (about 240 ns per pair at k = 8: bench/README.md's replay_ns).

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"supercayley/internal/gens"
	"supercayley/internal/graph"
)

// Workload is a seeded list of (src, dst) node-rank pairs.
type Workload struct {
	Name       string
	Srcs, Dsts []int32
}

// Pairs returns the number of pairs.
func (wl Workload) Pairs() int { return len(wl.Srcs) }

// UniformWorkload draws pairs uniformly over [0, n) with src ≠ dst
// (when n > 1), deterministically from the seed.
func UniformWorkload(n, pairs int, seed int64) Workload {
	srcs, dsts := samplePairs(n, pairs, seed)
	wl := Workload{Name: "uniform", Srcs: make([]int32, pairs), Dsts: make([]int32, pairs)}
	for i := range srcs {
		wl.Srcs[i] = int32(srcs[i])
		wl.Dsts[i] = int32(dsts[i])
	}
	return wl
}

// ZipfWorkload draws pairs with zipfian-skewed endpoints over [0, n)
// (skew s > 1; hotter heads for larger s) with src ≠ dst when n > 1,
// deterministically from the seed.  Skewed endpoints concentrate the
// quotient space too, which is what makes the normalized route cache
// earn its keep on realistic traffic.
func ZipfWorkload(n, pairs int, seed int64, skew float64) Workload {
	if skew <= 1 {
		skew = 1.2
	}
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, skew, 1, uint64(n-1))
	wl := Workload{
		Name: fmt.Sprintf("zipf(s=%.2f)", skew),
		Srcs: make([]int32, pairs),
		Dsts: make([]int32, pairs),
	}
	for i := 0; i < pairs; i++ {
		wl.Srcs[i] = int32(z.Uint64())
		wl.Dsts[i] = int32(z.Uint64())
		for n > 1 && wl.Dsts[i] == wl.Srcs[i] {
			wl.Dsts[i] = int32(z.Uint64())
		}
	}
	return wl
}

// PoissonArrivals returns the cumulative arrival offsets of a seeded
// Poisson process at ratePerSec: n independent-exponential gaps, the
// open-loop arrival schedule the benchmark (bench/) fixes before each
// timed phase so that a slow server cannot slow the offered load down.
func PoissonArrivals(n int, ratePerSec float64, seed int64) []time.Duration {
	if ratePerSec <= 0 {
		panic("sim: PoissonArrivals needs a positive rate")
	}
	r := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / ratePerSec
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// AppendRouteFunc is the bulk-engine routing contract: append the port
// route from src to dst onto buf and return the extended slice,
// allocating only when buf runs out of capacity.  Port p is generator
// index p of the network's set, so gens.GenIndex doubles as the port
// type (core.CachedRouter.AppendRouteRanks satisfies this shape).
type AppendRouteFunc func(buf []gens.GenIndex, src, dst int) ([]gens.GenIndex, error)

// AsRouteFunc adapts the bulk contract to the per-call RouteFunc the
// TE and fault simulators consume.
func (f AppendRouteFunc) AsRouteFunc() RouteFunc {
	return func(src, dst int) ([]int, error) {
		idx, err := f(make([]gens.GenIndex, 0, 64), src, dst)
		if err != nil {
			return nil, err
		}
		ports := make([]int, len(idx))
		for i, p := range idx {
			ports[i] = int(p)
		}
		return ports, nil
	}
}

// ThroughputResult reports a bulk routing run.
type ThroughputResult struct {
	Net      string
	Workload string
	Pairs    int
	// TotalHops sums route lengths across pairs.
	TotalHops int64
	// Seconds is wall time for the whole batch; PairsPerSec the
	// headline throughput.
	Seconds     float64
	PairsPerSec float64
	// MeanRouteLen is TotalHops / Pairs.
	MeanRouteLen float64
}

// Throughput routes every workload pair through the engine, fanned out
// over GOMAXPROCS workers with per-worker route buffers, and verifies
// each route end to end by replaying its ports through the network's
// neighbor tables — a route that does not land on its destination
// fails the run.
func Throughput(nt *Net, route AppendRouteFunc, wl Workload) (ThroughputResult, error) {
	pairs := wl.Pairs()
	if pairs == 0 || len(wl.Dsts) != pairs {
		return ThroughputResult{}, fmt.Errorf("sim: throughput needs a non-empty workload with matching src/dst lists")
	}
	if route == nil {
		return ThroughputResult{}, fmt.Errorf("sim: throughput needs a routing engine")
	}
	n, d := nt.N(), nt.Ports()
	var totalHops int64
	errv := make([]error, graph.Parallelism(pairs))
	t0 := time.Now()
	parallelChunks(pairs, func(worker, lo, hi int) {
		buf := make([]gens.GenIndex, 0, 512)
		var hops int64
		for i := lo; i < hi; i++ {
			src, dst := int(wl.Srcs[i]), int(wl.Dsts[i])
			if src < 0 || src >= n || dst < 0 || dst >= n {
				errv[worker] = fmt.Errorf("sim: workload pair %d (%d, %d) out of range [0, %d)", i, src, dst, n)
				return
			}
			var err error
			buf, err = route(buf[:0], src, dst)
			if err != nil {
				errv[worker] = fmt.Errorf("sim: route %d→%d: %w", src, dst, err)
				return
			}
			cur := src
			for _, p := range buf {
				if int(p) >= d {
					errv[worker] = fmt.Errorf("sim: route %d→%d uses invalid port %d", src, dst, p)
					return
				}
				cur = nt.Neighbor(cur, int(p))
			}
			if cur != dst {
				errv[worker] = fmt.Errorf("sim: route %d→%d delivers to %d", src, dst, cur)
				return
			}
			hops += int64(len(buf))
		}
		atomic.AddInt64(&totalHops, hops)
	})
	elapsed := time.Since(t0)
	seconds := elapsed.Seconds()
	for _, err := range errv {
		if err != nil {
			return ThroughputResult{}, err
		}
	}
	mTputRuns.Inc()
	mTputPairs.Add(uint64(pairs))
	mTputHops.Add(uint64(totalHops))
	hTputRunNs.Observe(0, uint64(elapsed.Nanoseconds()))
	res := ThroughputResult{
		Net:          nt.Name(),
		Workload:     wl.Name,
		Pairs:        pairs,
		TotalHops:    totalHops,
		Seconds:      seconds,
		MeanRouteLen: float64(totalHops) / float64(pairs),
	}
	if seconds > 0 {
		res.PairsPerSec = float64(pairs) / seconds
	}
	return res, nil
}
