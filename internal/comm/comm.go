// Package comm executes the paper's prototype communication tasks —
// the multinode broadcast (MNB) and the total exchange (TE) — on star
// graphs and super Cayley networks over the internal/sim simulator,
// and compares the measured completion times with the Θ-bounds of
// Corollaries 2 and 3.
package comm

import (
	"fmt"

	"supercayley/internal/core"
	"supercayley/internal/perm"
	"supercayley/internal/schedule"
	"supercayley/internal/sim"
	"supercayley/internal/star"
)

// StarNet enumerates the k-star for simulation.
func StarNet(k int) (*sim.Net, error) {
	st, err := star.New(k)
	if err != nil {
		return nil, err
	}
	return sim.FromSet(st.Name(), st.Set())
}

// SCGNet enumerates a super Cayley network for simulation.
func SCGNet(nw *core.Network) (*sim.Net, error) {
	return sim.FromSet(nw.Name(), nw.Set())
}

// StarRoute returns the port-sequence routing function of the k-star
// (optimal greedy cycle routing).
func StarRoute(k int) (sim.RouteFunc, error) {
	st, err := star.New(k)
	if err != nil {
		return nil, err
	}
	set := st.Set()
	return func(src, dst int) ([]int, error) {
		u := perm.Unrank(k, int64(src))
		v := perm.Unrank(k, int64(dst))
		seq := st.Route(u, v)
		ports := make([]int, len(seq))
		for i, g := range seq {
			ports[i] = set.Index(g)
		}
		return ports, nil
	}, nil
}

// SCGRoute returns the port-sequence routing function of a super
// Cayley network (star-emulation routing, Theorems 1–3), served
// through the symmetry-normalized route cache: every caller of this
// function — the TE simulator, the experiments, `scg tasks` — rides
// the bulk engine.  Differential tests pin its output to the original
// per-call router port for port.
func SCGRoute(nw *core.Network) sim.RouteFunc {
	return NewSCGEngine(nw).RouteFunc()
}

// MNBReport compares a measured multinode broadcast against its
// capacity lower bound.
type MNBReport struct {
	Net        string
	Model      sim.Model
	N, Degree  int
	Rounds     int
	LowerBound int
	// Ratio is Rounds / LowerBound — the constant hidden in the Θ.
	Ratio float64
	// LinkRatio is max/min traffic over the links that carry traffic:
	// the paper claims uniformity within a constant factor.
	LinkRatio float64
	// IdleLinks counts links the algorithm never used.
	IdleLinks int
}

// String renders the report on one line.
func (r MNBReport) String() string {
	return fmt.Sprintf("MNB on %-18s %-16s N=%-6d rounds=%-6d LB=%-6d ratio=%.2f linkratio=%.2f idle=%d",
		r.Net, r.Model, r.N, r.Rounds, r.LowerBound, r.Ratio, r.LinkRatio, r.IdleLinks)
}

// RunMNB simulates the multinode broadcast on a network.
func RunMNB(nt *sim.Net, model sim.Model) (MNBReport, error) {
	res, err := sim.MNB(nt, model)
	if err != nil {
		return MNBReport{}, err
	}
	lb := sim.MNBLowerBound(nt.N(), nt.Ports(), model)
	rep := MNBReport{
		Net:        nt.Name(),
		Model:      model,
		N:          nt.N(),
		Degree:     nt.Ports(),
		Rounds:     res.Rounds,
		LowerBound: lb,
		LinkRatio:  res.LinkStats.Ratio(),
		IdleLinks:  res.LinkStats.Idle,
	}
	if lb > 0 {
		rep.Ratio = float64(res.Rounds) / float64(lb)
	}
	mMNBRuns.Inc()
	mMNBRounds.Add(uint64(res.Rounds))
	return rep, nil
}

// TEReport compares a measured total exchange against its capacity
// lower bound.
type TEReport struct {
	Net        string
	N, Degree  int
	Rounds     int
	LowerBound int
	Ratio      float64
	LinkRatio  float64
	IdleLinks  int
	TotalHops  int64
}

// String renders the report on one line.
func (r TEReport) String() string {
	return fmt.Sprintf("TE  on %-18s all-port         N=%-6d rounds=%-6d LB=%-6d ratio=%.2f linkratio=%.2f idle=%d",
		r.Net, r.N, r.Rounds, r.LowerBound, r.Ratio, r.LinkRatio, r.IdleLinks)
}

// RunTE simulates the total exchange on a network with the given
// routing function (all-port model).
func RunTE(nt *sim.Net, route sim.RouteFunc) (TEReport, error) {
	res, err := sim.TE(nt, route)
	if err != nil {
		return TEReport{}, err
	}
	lb := sim.TELowerBound(nt.N(), nt.Ports(), res.TotalHops)
	rep := TEReport{
		Net:        nt.Name(),
		N:          nt.N(),
		Degree:     nt.Ports(),
		Rounds:     res.Rounds,
		LowerBound: lb,
		LinkRatio:  res.LinkStats.Ratio(),
		IdleLinks:  res.LinkStats.Idle,
		TotalHops:  res.TotalHops,
	}
	if lb > 0 {
		rep.Ratio = float64(res.Rounds) / float64(lb)
	}
	mTERuns.Inc()
	mTERounds.Add(uint64(res.Rounds))
	return rep, nil
}

// SDCSlowdown returns the per-round slowdown of emulating the star on
// nw under the single-dimension model: the longest dimension expansion
// (3 for MS/Complete-RS by Theorem 1, 2 for IS by Theorem 2, 4 for
// MIS/Complete-RIS by Theorem 3).
func SDCSlowdown(nw *core.Network) int { return nw.MaxDilation() }

// AllPortSlowdown returns the per-round slowdown of emulating the star
// on nw under the all-port model: the makespan of the Theorem 4/5
// schedule.
func AllPortSlowdown(nw *core.Network) (int, error) {
	s, err := schedule.Build(nw)
	if err != nil {
		return 0, err
	}
	return s.Makespan, nil
}

// EmulatedMNB returns the rounds an MNB takes on nw when emulating the
// star algorithm (star rounds × model slowdown), together with the
// star measurement it derives from.  This is how Corollary 2 obtains
// the Θ(N·√(loglogN/logN)) MNB time on MS/Complete-RS/MIS/Complete-RIS
// networks from the star's Θ(N·loglogN/logN).
func EmulatedMNB(nw *core.Network, model sim.Model) (starRounds, slowdown, emulated int, err error) {
	stNet, err := StarNet(nw.K())
	if err != nil {
		return 0, 0, 0, err
	}
	rep, err := RunMNB(stNet, model)
	if err != nil {
		return 0, 0, 0, err
	}
	switch model {
	case sim.SDC:
		slowdown = SDCSlowdown(nw)
	case sim.AllPort:
		slowdown, err = AllPortSlowdown(nw)
		if err != nil {
			return 0, 0, 0, err
		}
	default:
		return 0, 0, 0, fmt.Errorf("comm: emulation under %v not modelled", model)
	}
	return rep.Rounds, slowdown, rep.Rounds * slowdown, nil
}

// SumDistances returns the sum of distances from one node to all
// others times N (exact for vertex-symmetric graphs), used by the TE
// lower bound.
func SumDistances(nt *sim.Net) int64 {
	s := nt.CSR().Stats(0)
	return s.DistCounted * int64(nt.N())
}
