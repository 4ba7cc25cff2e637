package core

import (
	"fmt"
	"sync"

	"supercayley/internal/gens"
	"supercayley/internal/graph"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
)

// CachedRouter is the high-throughput routing engine: the zero-alloc
// kernel of RouteInto behind the symmetry-normalized cache of
// cache.go, with pooled scratch so it is safe and cheap to call from
// GOMAXPROCS workers concurrently.  Routes come back as compact
// generator indices; Set().Decode recovers the labelled sequence, and
// the indices are exactly the sim package's port numbers.
type CachedRouter struct {
	nw    *Network
	cache *RouteCache
	// table, when non-nil, is consulted before the cache (see table.go:
	// fall-through is table → LRU → greedy kernel).  rankTable is the
	// same table seen through the optional RankTable extension (set by
	// UseTable when the assertion holds), letting AppendRouteRanks skip
	// the two UnrankInto calls per pair.
	table     QuotientTable
	rankTable RankTable
	scratch   sync.Pool // *RouteScratch
}

// NewCachedRouter builds a router for nw; the zero CacheConfig picks
// the defaults (see CacheConfig).
func NewCachedRouter(nw *Network, cfg CacheConfig) *CachedRouter {
	cr := &CachedRouter{nw: nw, cache: newRouteCache(cfg, nw.k <= RankKeyMaxK)}
	cr.scratch.New = func() any {
		mScratchNew.Inc()
		return NewRouteScratch(nw.k)
	}
	return cr
}

// Network returns the network the router routes on.
func (cr *CachedRouter) Network() *Network { return cr.nw }

// Stats returns the cache counters.
func (cr *CachedRouter) Stats() CacheStats { return cr.cache.Stats() }

// quotientKey computes the cache key of quotient w: the exact Lehmer
// rank for k ≤ RankKeyMaxK, else a 64-bit FNV-1a hash (verified
// against the stored quotient on hit).
func (cr *CachedRouter) quotientKey(w perm.Perm) uint64 {
	if cr.nw.k <= RankKeyMaxK {
		return uint64(w.Rank())
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range w {
		h ^= uint64(s)
		h *= prime64
	}
	return h
}

// AppendRoute appends the route from u to v onto dst as generator
// indices and returns the extended slice, consulting the cache first.
// The emitted sequence is identical to Route(u, v): cache hits copy
// the stored normalized route, misses compute it with the zero-alloc
// kernel and insert it.
func (cr *CachedRouter) AppendRoute(dst []gens.GenIndex, u, v perm.Perm) []gens.GenIndex {
	s := cr.scratch.Get().(*RouteScratch)
	s.timed = false // perm-addressed entry: no stable rank key to sample on
	mark := len(dst)
	dst = cr.appendRoute(dst, u, v, s)
	s.observeHops(0, len(dst)-mark)
	cr.scratch.Put(s)
	return dst
}

func (cr *CachedRouter) appendRoute(dst []gens.GenIndex, u, v perm.Perm, s *RouteScratch) []gens.GenIndex {
	if len(u) != cr.nw.k || len(v) != cr.nw.k {
		panic(fmt.Sprintf("core: AppendRoute on %s wants %d symbols", cr.nw.Name(), cr.nw.k))
	}
	var t0 int64
	if s.timed {
		t0 = obs.NowNs()
	}
	v.InverseInto(s.inv)
	s.inv.ComposeInto(s.w, u)
	if t := cr.table; t != nil {
		if out, ok := t.AppendQuotientRoute(dst, s.w); ok {
			s.hit = true
			mTableServed.Inc()
			if s.timed {
				StageTableWalk.Observe(int(t0), uint64(obs.NowNs()-t0))
			}
			return out
		}
		// Declined (uncovered band): s.w is intact, fall through.
	}
	key := cr.quotientKey(s.w)
	if out, ok := cr.cache.get(dst, key, s.w); ok {
		s.hit = true
		if s.timed {
			StageCacheHit.Observe(int(t0), uint64(obs.NowNs()-t0))
		}
		return out
	}
	s.hit = false
	mark := len(dst)
	var tk int64
	if s.timed {
		tk = obs.NowNs()
	}
	dst = cr.nw.appendQuotientRoute(dst, s.w) // consumes s.w
	if s.timed {
		StageKernel.Observe(int(tk), uint64(obs.NowNs()-tk))
	}
	// Re-derive the quotient for hashed-key storage (s.w is now the
	// identity); rank-keyed caches never read it.
	if cr.nw.k > RankKeyMaxK {
		v.InverseInto(s.inv)
		s.inv.ComposeInto(s.w, u)
	}
	cr.cache.put(key, s.w, dst[mark:])
	if s.timed {
		// The miss stage spans the whole cold resolution (kernel included):
		// stages are independent histograms, not a partition.
		StageCacheMiss.Observe(int(t0), uint64(obs.NowNs()-t0))
	}
	return dst
}

// AppendRouteRanks is AppendRoute addressed by Lehmer ranks — the form
// the simulators use (node IDs are ranks).
func (cr *CachedRouter) AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, error) {
	n := perm.Factorial(cr.nw.k)
	if src < 0 || src >= n || dstRank < 0 || dstRank >= n {
		return dst, fmt.Errorf("core: rank pair (%d, %d) out of range [0, %d)", src, dstRank, n)
	}
	s := cr.scratch.Get().(*RouteScratch)
	// One sampling decision covers both the route tracer and the deep
	// stage timers: sampled pairs time their table/cache/kernel phases
	// into the scg_stage_* histograms (see appendRoute).  The sampler
	// answers false whenever telemetry is disabled.
	sampled := obs.RouteTrace.Sampled(uint64(src)<<32 ^ uint64(dstRank))
	s.timed = sampled
	mark := len(dst)
	if rt := cr.rankTable; rt != nil {
		// Rank-addressed fast lane: the table resolves both endpoints
		// from its own slab, so neither UnrankInto runs.
		var t0 int64
		if s.timed {
			t0 = obs.NowNs()
		}
		if out, ok := rt.AppendRouteRanks(dst, src, dstRank); ok {
			dst = out
			s.hit = true
			mTableServed.Inc()
			if s.timed {
				StageTableWalk.Observe(int(src), uint64(obs.NowNs()-t0))
			}
		} else {
			perm.UnrankInto(s.u, src)
			perm.UnrankInto(s.v, dstRank)
			dst = cr.appendRoute(dst, s.u, s.v, s)
		}
	} else {
		perm.UnrankInto(s.u, src)
		perm.UnrankInto(s.v, dstRank)
		dst = cr.appendRoute(dst, s.u, s.v, s)
	}
	hops := len(dst) - mark
	// One scratch-page observation per pair (flushed to the histogram
	// striped on the source rank, so parallel RouteMany workers spread
	// across cache lines); routes- and hops-totals are derived from the
	// histogram at snapshot time.
	s.observeHops(int(src), hops)
	if sampled {
		obs.RouteTrace.Record(src, dstRank, hops, 0, s.hit, dst[mark:])
	}
	cr.scratch.Put(s)
	return dst, nil
}

// Route returns the labelled generator sequence from u to v through
// the cache; it allocates the result (use AppendRoute on hot paths).
func (cr *CachedRouter) Route(u, v perm.Perm) []gens.Generator {
	idx := cr.AppendRoute(make([]gens.GenIndex, 0, 64), u, v)
	return cr.nw.set.Decode(idx)
}

// RouteLen returns len(Route(u, v)) through the cache, warming it for
// subsequent full lookups (the fault-rerouting alternate ranking calls
// this once per port per blocked hop).
func (cr *CachedRouter) RouteLen(u, v perm.Perm) int {
	s := cr.scratch.Get().(*RouteScratch)
	s.timed = false
	// Reuse the index buffer hanging off the scratch value so repeated
	// length probes stay allocation-free once warm.
	s.idx = cr.appendRoute(s.idx[:0], u, v, s)
	n := len(s.idx)
	cr.scratch.Put(s)
	return n
}

// BulkRoutes is the flattened result of RouteMany: the route of pair i
// is Steps[Offsets[i]:Offsets[i+1]], in generator indices.
type BulkRoutes struct {
	Offsets []int64
	Steps   []gens.GenIndex
}

// Pairs returns the number of routed pairs.
func (b *BulkRoutes) Pairs() int { return len(b.Offsets) - 1 }

// Route returns the index route of pair i (a sub-slice; do not
// modify).
func (b *BulkRoutes) Route(i int) []gens.GenIndex {
	return b.Steps[b.Offsets[i]:b.Offsets[i+1]]
}

// TotalHops returns the summed route length.
func (b *BulkRoutes) TotalHops() int64 { return b.Offsets[len(b.Offsets)-1] }

// routeManySeqCutoff is the batch size below which RouteManyInto
// routes inline on the calling goroutine instead of fanning out: a
// warm pair costs well under a microsecond, so the goroutine and
// buffer setup of the parallel path only pays for itself on batches
// in the thousands.  The serve batcher's default flush size sits
// under this cutoff on purpose — its steady-state flush is a
// zero-allocation sequential pass.
const routeManySeqCutoff = 1024

// RouteManyInto is RouteMany with caller-owned result storage: out's
// slices are truncated and reused, growing only when capacity runs
// out, so a steady-state caller re-flushing into the same BulkRoutes
// (the serve batcher) allocates nothing once warm.  Batches below
// routeManySeqCutoff pairs — or any batch when one worker would run —
// are routed inline; larger ones take the parallel RouteMany path and
// are copied into out.
func (cr *CachedRouter) RouteManyInto(out *BulkRoutes, srcs, dsts []int64) error {
	if len(srcs) != len(dsts) {
		return fmt.Errorf("core: RouteManyInto wants equal-length rank slices (%d vs %d)", len(srcs), len(dsts))
	}
	pairs := len(srcs)
	if pairs >= routeManySeqCutoff && graph.Parallelism(pairs) > 1 {
		res, err := cr.RouteMany(srcs, dsts)
		if err != nil {
			return err
		}
		out.Offsets = append(out.Offsets[:0], res.Offsets...)
		out.Steps = append(out.Steps[:0], res.Steps...)
		return nil
	}
	mBulkCalls.Inc()
	mBulkPairs.Add(uint64(pairs))
	out.Offsets = append(out.Offsets[:0], 0)
	out.Steps = out.Steps[:0]
	for i := 0; i < pairs; i++ {
		var err error
		out.Steps, err = cr.AppendRouteRanks(out.Steps, srcs[i], dsts[i])
		if err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
		out.Offsets = append(out.Offsets, int64(len(out.Steps)))
	}
	return nil
}

// RouteMany routes every (srcs[i], dsts[i]) rank pair in parallel over
// GOMAXPROCS workers sharing the cache, and returns the routes in
// pair order as one flat index array.  The output is deterministic:
// worker scheduling affects only which worker fills which chunk, never
// the bytes.
//
//scg:deterministic
func (cr *CachedRouter) RouteMany(srcs, dsts []int64) (*BulkRoutes, error) {
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("core: RouteMany wants equal-length rank slices (%d vs %d)", len(srcs), len(dsts))
	}
	pairs := len(srcs)
	mBulkCalls.Inc()
	mBulkPairs.Add(uint64(pairs))
	if pairs == 0 {
		return &BulkRoutes{Offsets: []int64{0}}, nil
	}
	workers := graph.Parallelism(pairs)
	chunk := (pairs + workers - 1) / workers
	bufs := make([][]gens.GenIndex, workers)
	lens := make([][]int32, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > pairs {
			hi = pairs
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			buf := make([]gens.GenIndex, 0, 64*(hi-lo))
			ln := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				mark := len(buf)
				var err error
				buf, err = cr.AppendRouteRanks(buf, srcs[i], dsts[i])
				if err != nil {
					errs[w] = fmt.Errorf("pair %d: %w", i, err)
					return
				}
				ln = append(ln, int32(len(buf)-mark))
			}
			bufs[w] = buf
			lens[w] = ln
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &BulkRoutes{Offsets: make([]int64, pairs+1)}
	total := 0
	for _, buf := range bufs {
		total += len(buf)
	}
	out.Steps = make([]gens.GenIndex, 0, total)
	i := 0
	for w := range lens {
		for _, ln := range lens[w] {
			out.Offsets[i+1] = out.Offsets[i] + int64(ln)
			i++
		}
		out.Steps = append(out.Steps, bufs[w]...)
	}
	return out, nil
}
