// Fault-tolerant communication: adapters that run the paper's
// networks through the fault-injection simulator — adaptive unicast
// rerouting sweeps and multinode broadcast under node/link faults —
// and report the degradation metrics.
package comm

import (
	"supercayley/internal/core"
	"supercayley/internal/sim"
)

// SCGRouter returns the adaptive-routing callbacks of a super Cayley
// network: Route is the fault-free star-emulation route (Theorems
// 1–3) and Alternates ranks every generator of the set as a detour
// candidate.  Both run through one shared SCGEngine, so the sweep's
// route recomputations after detours — and the route-length probes
// behind the alternate ranking — hit the normalized cache instead of
// re-expanding star moves.  The ranking reproduces core.StepOptions'
// order exactly (differential tests pin this).
func SCGRouter(nw *core.Network) sim.Router {
	return NewSCGEngine(nw).Router()
}

// FaultSweepReport is a RouteSweep outcome tagged with its network
// and plan.
type FaultSweepReport struct {
	Net  string
	Plan string
	sim.SweepResult
}

// RunFaultSweep enumerates nw, injects the fault plan described by
// spec, and routes `pairs` seeded random pairs with adaptive
// rerouting.
func RunFaultSweep(nw *core.Network, spec sim.FaultSpec, pairs int, seed int64, policy sim.ReroutePolicy) (FaultSweepReport, error) {
	nt, err := SCGNet(nw)
	if err != nil {
		return FaultSweepReport{}, err
	}
	plan, err := sim.NewFaultPlan(nt, spec)
	if err != nil {
		return FaultSweepReport{}, err
	}
	res, err := sim.RouteSweep(nt, SCGRouter(nw), plan, pairs, seed, policy)
	if err != nil {
		return FaultSweepReport{}, err
	}
	mFaultSweeps.Inc()
	gFaultReachable.Set(res.Survivors.ReachableFraction)
	gFaultDelivered.Set(res.DeliveredFraction)
	return FaultSweepReport{Net: nw.Name(), Plan: plan.Summary(), SweepResult: res}, nil
}

// FaultyMNBReport is a fault-injected multinode broadcast outcome.
type FaultyMNBReport struct {
	Net   string
	Model sim.Model
	Plan  string
	sim.FaultyMNBResult
}

// RunFaultyMNB runs the multinode broadcast on nw under the fault
// plan described by spec.
func RunFaultyMNB(nw *core.Network, model sim.Model, spec sim.FaultSpec) (FaultyMNBReport, error) {
	nt, err := SCGNet(nw)
	if err != nil {
		return FaultyMNBReport{}, err
	}
	plan, err := sim.NewFaultPlan(nt, spec)
	if err != nil {
		return FaultyMNBReport{}, err
	}
	res, err := sim.MNBFaulty(nt, model, sim.RotatingScan, plan)
	if err != nil {
		return FaultyMNBReport{}, err
	}
	return FaultyMNBReport{Net: nw.Name(), Model: model, Plan: plan.Summary(), FaultyMNBResult: res}, nil
}
