package core

import (
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// Router is the routing-engine surface the service layers consume:
// internal/serve routes each job through RouteManyInto, the
// simulators route rank pairs through AppendRouteRanks, and the
// observability commands read Stats.  CachedRouter is the single-node
// implementation; internal/shard's Engine is the sharded one — both
// emit byte-identical routes for the same network, which the
// sharded-vs-unsharded differential pins.
type Router interface {
	// Network returns the routed network.
	Network() *Network
	// Stats returns the aggregated route-cache counters.
	Stats() CacheStats
	// AppendRouteRanks appends the port route for the pair addressed
	// by Lehmer ranks onto dst and returns the extended slice; it
	// allocates only when dst runs out of capacity.
	AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, error)
	// RouteManyInto routes every (srcs[i], dsts[i]) pair into
	// caller-owned storage; out's slices are truncated and reused so a
	// steady-state caller allocates nothing once warm.
	RouteManyInto(out *BulkRoutes, srcs, dsts []int64) error
	// RouteMany routes every pair and returns the routes in pair order
	// as one flat index array.
	RouteMany(srcs, dsts []int64) (*BulkRoutes, error)
}

// The compile-time pin: CachedRouter is a Router.
var _ Router = (*CachedRouter)(nil)

// AppendQuotientRoute appends the route that sorts quotient w to the
// identity — the exported entry of the greedy kernel, for engines
// (internal/shard) that normalize pairs themselves.  w is consumed: it
// is the identity on return.
//
//scg:noalloc
func (nw *Network) AppendQuotientRoute(dst []gens.GenIndex, w perm.Perm) []gens.GenIndex {
	mark := len(dst)
	dst = nw.appendQuotientRoute(dst, w)
	mKernelRoutes.Inc()
	mKernelSteps.Add(uint64(len(dst) - mark))
	return dst
}
