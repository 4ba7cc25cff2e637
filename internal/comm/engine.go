package comm

// The bulk routing engine adapter: one SCGEngine owns a
// core.CachedRouter (symmetry-normalized route cache over the
// zero-alloc kernel) and exposes it in every shape the simulators
// consume — the compact AppendRouteFunc for sim.Throughput, the
// per-call RouteFunc for TE, and the Router pair for the adaptive
// fault-rerouting sweep.  SCGRoute and SCGRouter build on it, so the
// TE, RouteSweep and MNB adapters all ride the cache.

import (
	"fmt"
	"sort"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/sim"
)

// SCGEngine is the cached bulk-routing engine of a super Cayley
// network.
type SCGEngine struct {
	nw *core.Network
	cr *core.CachedRouter
}

// NewSCGEngine builds an engine with the default cache configuration.
func NewSCGEngine(nw *core.Network) *SCGEngine {
	return NewSCGEngineWithCache(nw, core.CacheConfig{})
}

// NewSCGEngineWithCache builds an engine with an explicit cache
// configuration.
func NewSCGEngineWithCache(nw *core.Network, cfg core.CacheConfig) *SCGEngine {
	return &SCGEngine{nw: nw, cr: core.NewCachedRouter(nw, cfg)}
}

// Network returns the routed network.
func (e *SCGEngine) Network() *core.Network { return e.nw }

// AppendRoute satisfies sim.AppendRouteFunc: the port route from src
// to dst appended onto buf as generator indices.
func (e *SCGEngine) AppendRoute(buf []gens.GenIndex, src, dst int) ([]gens.GenIndex, error) {
	return e.cr.AppendRouteRanks(buf, int64(src), int64(dst))
}

// RouteFunc adapts the engine to the per-call routing contract of the
// TE simulator.
func (e *SCGEngine) RouteFunc() sim.RouteFunc {
	return sim.AppendRouteFunc(e.AppendRoute).AsRouteFunc()
}

// Router returns the adaptive-routing callbacks of the fault sweep:
// Route is the cached star-emulation route and Alternates ranks every
// generator as a detour candidate with cache-backed route lengths,
// reproducing core.StepOptions' preference order exactly (greedy step
// first, then ascending route length from the node each port leads
// to, ties broken by port order).
func (e *SCGEngine) Router() sim.Router {
	return sim.Router{Route: e.RouteFunc(), Alternates: e.alternatePorts}
}

// alternatePorts mirrors core.StepOptions over node ranks using the
// cache for every route-length probe.
func (e *SCGEngine) alternatePorts(cur, dst int) ([]int, error) {
	mAltRankings.Inc()
	k, set := e.nw.K(), e.nw.Set()
	u := perm.Unrank(k, int64(cur))
	v := perm.Unrank(k, int64(dst))
	if u.Equal(v) {
		return nil, nil
	}
	greedy, err := e.AppendRoute(make([]gens.GenIndex, 0, 64), cur, dst)
	if err != nil {
		return nil, err
	}
	if len(greedy) == 0 {
		return nil, fmt.Errorf("comm: empty route %d→%d on %s", cur, dst, e.nw.Name())
	}
	greedyPort := int(greedy[0])
	type cand struct {
		port, score int
	}
	cands := make([]cand, 0, set.Len())
	buf := make(perm.Perm, k)
	for p := 0; p < set.Len(); p++ {
		if p == greedyPort {
			continue
		}
		set.At(p).ApplyInto(buf, u)
		score := 0
		if !buf.Equal(v) {
			score = e.cr.RouteLen(buf, v)
		}
		cands = append(cands, cand{port: p, score: score})
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].score < cands[b].score })
	ports := make([]int, 0, set.Len())
	ports = append(ports, greedyPort)
	for _, c := range cands {
		ports = append(ports, c.port)
	}
	return ports, nil
}
