package comm

// The original per-call routers, kept as differential-testing oracles
// for the cached engine behind SCGRoute and SCGRouter.

import (
	"fmt"

	"supercayley/internal/core"
	"supercayley/internal/perm"
	"supercayley/internal/sim"
)

// SCGRouteLegacy is the original per-call routing function: unrank
// both endpoints, expand the star route generator by generator, look
// every port up by name.  It allocates on every hop.
func SCGRouteLegacy(nw *core.Network) sim.RouteFunc {
	set := nw.Set()
	k := nw.K()
	return func(src, dst int) ([]int, error) {
		u := perm.Unrank(k, int64(src))
		v := perm.Unrank(k, int64(dst))
		seq := nw.Route(u, v)
		ports := make([]int, len(seq))
		for i, g := range seq {
			idx := set.Index(g)
			if idx < 0 {
				return nil, fmt.Errorf("comm: generator %s not a port of %s", g.Name(), nw.Name())
			}
			ports[i] = idx
		}
		return ports, nil
	}
}

// SCGRouterLegacy is the original adaptive-routing pair built on the
// per-call SCGRouteLegacy and core.StepOptions.
func SCGRouterLegacy(nw *core.Network) sim.Router {
	set, k := nw.Set(), nw.K()
	return sim.Router{
		Route: SCGRouteLegacy(nw),
		Alternates: func(cur, dst int) ([]int, error) {
			u := perm.Unrank(k, int64(cur))
			v := perm.Unrank(k, int64(dst))
			opts := nw.StepOptions(u, v)
			ports := make([]int, len(opts))
			for i, g := range opts {
				idx := set.Index(g)
				if idx < 0 {
					return nil, fmt.Errorf("comm: generator %s not a port of %s", g.Name(), nw.Name())
				}
				ports[i] = idx
			}
			return ports, nil
		},
	}
}
