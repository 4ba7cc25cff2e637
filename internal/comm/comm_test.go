package comm

import (
	"strings"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/sim"
)

func mustIS(t *testing.T, k int) *core.Network {
	t.Helper()
	nw, err := core.NewIS(k)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestStarMNBAllModels(t *testing.T) {
	nt, err := StarNet(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []sim.Model{sim.AllPort, sim.SinglePort, sim.SDC} {
		rep, err := RunMNB(nt, model)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rounds < rep.LowerBound {
			t.Errorf("%v: rounds below bound: %+v", model, rep)
		}
		if rep.Ratio > 6 {
			t.Errorf("%v: ratio %.2f too large", model, rep.Ratio)
		}
		if !strings.Contains(rep.String(), "MNB") {
			t.Error("report string malformed")
		}
	}
}

func TestSCGMNBDirect(t *testing.T) {
	// MNB run directly on super Cayley networks (the gossip algorithm
	// is topology-agnostic); measures Corollary 2's claim shape.
	for _, nw := range []*core.Network{
		core.MustNew(core.MS, 2, 2),
		core.MustNew(core.CompleteRS, 2, 2),
		mustIS(t, 5),
	} {
		nt, err := SCGNet(nw)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunMNB(nt, sim.AllPort)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rounds < rep.LowerBound || rep.Ratio > 6 {
			t.Errorf("%s: %+v", nw.Name(), rep)
		}
	}
}

func TestEmulatedMNBSlowdowns(t *testing.T) {
	// Corollary 2 derives SCG task times by emulation: star rounds ×
	// slowdown.  SDC slowdown must equal the Theorem 1–3 dilations and
	// the all-port slowdown the Theorem 4–5 makespans.
	cases := []struct {
		nw          *core.Network
		wantSDC     int
		wantAllPort int
	}{
		{core.MustNew(core.MS, 2, 2), 3, 4},
		{core.MustNew(core.CompleteRS, 2, 2), 3, 4},
		{mustIS(t, 5), 2, 2},
		{core.MustNew(core.MIS, 2, 2), 4, 5}, // 5: see schedule.TestMIS22OptimumIsFive
	}
	for _, c := range cases {
		starRounds, slowdown, emulated, err := EmulatedMNB(c.nw, sim.SDC)
		if err != nil {
			t.Fatal(err)
		}
		if slowdown != c.wantSDC || emulated != starRounds*slowdown {
			t.Errorf("%s SDC: slowdown %d want %d", c.nw.Name(), slowdown, c.wantSDC)
		}
		_, slowdown, _, err = EmulatedMNB(c.nw, sim.AllPort)
		if err != nil {
			t.Fatal(err)
		}
		if slowdown != c.wantAllPort {
			t.Errorf("%s all-port: slowdown %d want %d", c.nw.Name(), slowdown, c.wantAllPort)
		}
	}
	if _, _, _, err := EmulatedMNB(core.MustNew(core.MS, 2, 2), sim.SinglePort); err == nil {
		t.Error("single-port emulation should be unmodelled")
	}
}

func TestStarTE(t *testing.T) {
	nt, err := StarNet(5)
	if err != nil {
		t.Fatal(err)
	}
	route, err := StarRoute(5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunTE(nt, route)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < rep.LowerBound || rep.Ratio > 6 {
		t.Errorf("star TE: %+v", rep)
	}
	if !strings.Contains(rep.String(), "TE") {
		t.Error("report string malformed")
	}
}

func TestSCGTE(t *testing.T) {
	for _, nw := range []*core.Network{
		core.MustNew(core.MS, 2, 2),
		mustIS(t, 5),
	} {
		nt, err := SCGNet(nw)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunTE(nt, SCGRoute(nw))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rounds < rep.LowerBound {
			t.Errorf("%s TE rounds %d below bound %d", nw.Name(), rep.Rounds, rep.LowerBound)
		}
		if rep.Ratio > 8 {
			t.Errorf("%s TE ratio %.2f", nw.Name(), rep.Ratio)
		}
	}
}

func TestSumDistancesMatchesTheory(t *testing.T) {
	nt, err := StarNet(5)
	if err != nil {
		t.Fatal(err)
	}
	// The star is vertex-symmetric, so node 0's distance profile is
	// every node's: the mean distance must lie in [1, diameter 6].
	s := nt.CSR().Stats(0)
	if !s.Connected || s.Mean < 1 || s.Mean > 6 {
		t.Fatalf("mean distance %.2f implausible (%+v)", s.Mean, s)
	}
}

func TestCorollary23ThetaShapes(t *testing.T) {
	// Corollary 2: star MNB all-port is Θ(N·loglogN/logN); emulation
	// puts the SCG within a slowdown factor max(2n, l+1) of it.
	// Measured: ratio of rounds to (N-1)/degree stays bounded across k
	// (the Θ constant), for k = 4, 5.
	var ratios []float64
	for _, k := range []int{4, 5} {
		nt, err := StarNet(k)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunMNB(nt, sim.AllPort)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, rep.Ratio)
	}
	for _, r := range ratios {
		if r > 5 {
			t.Errorf("MNB Θ-constant %.2f too large", r)
		}
	}
}

func TestSDCTotalExchangeStar(t *testing.T) {
	// Mišić–Jovanović: the k-star completes the SDC total exchange in
	// (k+1)! + o((k+1)!) rounds.  k=5: (k+1)! = 720; greedy dimension
	// sweeps with optimal routes should land within a small factor.
	nt, err := StarNet(5)
	if err != nil {
		t.Fatal(err)
	}
	route, err := StarRoute(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.TESDC(nt, route)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(nt.N()) * int64(nt.N()-1)
	if res.Delivered != want {
		t.Fatalf("delivered %d of %d", res.Delivered, want)
	}
	optimum := 720 // (k+1)!
	if res.Rounds < optimum/2 || res.Rounds > 3*optimum {
		t.Fatalf("SDC TE rounds %d far from the (k+1)! = %d shape", res.Rounds, optimum)
	}
	t.Logf("SDC TE on 5-star: %d rounds vs (k+1)! = %d (ratio %.2f)",
		res.Rounds, optimum, float64(res.Rounds)/float64(optimum))
}

func TestSDCTotalExchangeSCG(t *testing.T) {
	// Emulation corollary: the SCG SDC TE completes within ~dilation ×
	// the star time.
	nw := core.MustNew(core.MS, 2, 2)
	nt, err := SCGNet(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.TESDC(nt, SCGRoute(nw))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != int64(nt.N())*int64(nt.N()-1) {
		t.Fatal("SDC TE on MS incomplete")
	}
	t.Logf("SDC TE on MS(2,2): %d rounds", res.Rounds)
}

func TestTasksOnDirectedNetworks(t *testing.T) {
	// MNB and TE must work on directed families (MR/RR): no reverse
	// links for gossip acknowledgements, routes use forward
	// generators only.
	nw := core.MustNew(core.MR, 2, 2)
	nt, err := SCGNet(nw)
	if err != nil {
		t.Fatal(err)
	}
	mnb, err := RunMNB(nt, sim.AllPort)
	if err != nil {
		t.Fatal(err)
	}
	if mnb.Rounds < mnb.LowerBound {
		t.Fatalf("directed MNB below bound: %+v", mnb)
	}
	te, err := RunTE(nt, SCGRoute(nw))
	if err != nil {
		t.Fatal(err)
	}
	if te.Rounds < te.LowerBound {
		t.Fatalf("directed TE below bound: %+v", te)
	}
}
