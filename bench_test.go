// Benchmarks regenerating every figure and quantitative claim of the
// paper's evaluation, one benchmark per entry of DESIGN.md's
// per-experiment index.  Metrics that the paper states (dilation,
// slowdown, congestion, rounds) are attached with b.ReportMetric so
// `go test -bench=. -benchmem` prints the reproduced numbers next to
// the timings.
package supercayley_test

import (
	"testing"

	"supercayley/internal/comm"
	"supercayley/internal/core"
	"supercayley/internal/embed"
	"supercayley/internal/graph"
	"supercayley/internal/perm"
	"supercayley/internal/schedule"
	"supercayley/internal/sim"
)

func mustIS(b *testing.B, k int) *core.Network {
	b.Helper()
	nw, err := core.NewIS(k)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

func measureEmbedding(b *testing.B, e *embed.Embedding, err error) embed.Metrics {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	var m embed.Metrics
	for i := 0; i < b.N; i++ {
		if m, err = e.Measure(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Dilation), "dilation")
	b.ReportMetric(float64(m.Congestion), "congestion")
	b.ReportMetric(float64(m.Load), "load")
	return m
}

// BenchmarkFigure1aSchedule regenerates Figure 1a: the explicit
// schedule emulating a 13-star on MS(4,3), 6 steps.
func BenchmarkFigure1aSchedule(b *testing.B) {
	nw := core.MustNew(core.MS, 4, 3)
	var s *schedule.Schedule
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = schedule.Paper(nw); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Validate(); err != nil {
		b.Fatal(err)
	}
	_, avg := s.Utilization()
	b.ReportMetric(float64(s.Makespan), "slowdown")
	b.ReportMetric(avg*100, "util%")
}

// BenchmarkFigure1bSchedule regenerates Figure 1b: the general-case
// schedule emulating a 16-star on MS(5,3), 6 steps, 93% utilization.
func BenchmarkFigure1bSchedule(b *testing.B) {
	nw := core.MustNew(core.MS, 5, 3)
	var s *schedule.Schedule
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = schedule.Build(nw); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Validate(); err != nil {
		b.Fatal(err)
	}
	_, avg := s.Utilization()
	b.ReportMetric(float64(s.Makespan), "slowdown")
	b.ReportMetric(avg*100, "util%")
}

// BenchmarkTheorem1SDC measures the star embedding into MS(3,2):
// dilation 3 (= SDC slowdown 3).
func BenchmarkTheorem1SDC(b *testing.B) {
	e, err := embed.StarInto(core.MustNew(core.MS, 3, 2))
	m := measureEmbedding(b, e, err)
	if m.Dilation != 3 {
		b.Fatalf("dilation %d, want 3", m.Dilation)
	}
}

// BenchmarkTheorem2IS measures the star embedding into IS(6):
// dilation 2, congestion 1.
func BenchmarkTheorem2IS(b *testing.B) {
	e, err := embed.StarInto(mustIS(b, 6))
	m := measureEmbedding(b, e, err)
	if m.Dilation != 2 || m.Congestion != 1 {
		b.Fatalf("dilation %d congestion %d, want 2/1", m.Dilation, m.Congestion)
	}
}

// BenchmarkTheorem3MIS measures the star embedding into MIS(3,2):
// dilation 4.
func BenchmarkTheorem3MIS(b *testing.B) {
	e, err := embed.StarInto(core.MustNew(core.MIS, 3, 2))
	m := measureEmbedding(b, e, err)
	if m.Dilation != 4 {
		b.Fatalf("dilation %d, want 4", m.Dilation)
	}
}

// BenchmarkTheorem4AllPort builds optimal all-port schedules across
// the MS/Complete-RS sweep: slowdown max(2n, l+1).
func BenchmarkTheorem4AllPort(b *testing.B) {
	configs := []*core.Network{
		core.MustNew(core.MS, 2, 2),
		core.MustNew(core.MS, 4, 3),
		core.MustNew(core.MS, 5, 3),
		core.MustNew(core.CompleteRS, 4, 3),
	}
	for i := 0; i < b.N; i++ {
		for _, nw := range configs {
			s, err := schedule.Build(nw)
			if err != nil {
				b.Fatal(err)
			}
			if s.Makespan != schedule.TheoremBound(nw) {
				b.Fatalf("%s: %d != %d", nw.Name(), s.Makespan, schedule.TheoremBound(nw))
			}
		}
	}
}

// BenchmarkTheorem5AllPortIS builds all-port schedules for MIS /
// Complete-RIS: slowdown max(2n, l+2), +1 when 2n > l+1.
func BenchmarkTheorem5AllPortIS(b *testing.B) {
	configs := []*core.Network{
		core.MustNew(core.MIS, 4, 3),
		core.MustNew(core.CompleteRIS, 4, 3),
	}
	var last int
	for i := 0; i < b.N; i++ {
		for _, nw := range configs {
			s, err := schedule.Build(nw)
			if err != nil {
				b.Fatal(err)
			}
			last = s.Makespan
		}
	}
	b.ReportMetric(float64(last), "slowdown")
}

// BenchmarkCorollary1Optimal compares the MS slowdown at l = Θ(n)
// against the degree-ratio lower bound.
func BenchmarkCorollary1Optimal(b *testing.B) {
	nw := core.MustNew(core.MS, 4, 3)
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := schedule.Build(nw)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(s.Makespan) * float64(nw.Degree()) / float64(nw.K()-1)
	}
	b.ReportMetric(ratio, "slowdown/degree-ratio")
}

// BenchmarkCorollary2MNB simulates the multinode broadcast on the
// 5-star (all-port) and reports the rounds vs the (N−1)/d bound.
func BenchmarkCorollary2MNB(b *testing.B) {
	nt, err := comm.StarNet(5)
	if err != nil {
		b.Fatal(err)
	}
	var rep comm.MNBReport
	for i := 0; i < b.N; i++ {
		if rep, err = comm.RunMNB(nt, sim.AllPort); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Rounds), "rounds")
	b.ReportMetric(rep.Ratio, "vs-LB")
}

// BenchmarkCorollary2MNBEmulated reports the emulated MNB time on
// MS(2,2) (star rounds × Theorem 4 slowdown).
func BenchmarkCorollary2MNBEmulated(b *testing.B) {
	nw := core.MustNew(core.MS, 2, 2)
	var emulated int
	for i := 0; i < b.N; i++ {
		var err error
		if _, _, emulated, err = comm.EmulatedMNB(nw, sim.AllPort); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(emulated), "rounds")
}

// BenchmarkCorollary3TE simulates the total exchange on the 5-star.
func BenchmarkCorollary3TE(b *testing.B) {
	nt, err := comm.StarNet(5)
	if err != nil {
		b.Fatal(err)
	}
	route, err := comm.StarRoute(5)
	if err != nil {
		b.Fatal(err)
	}
	var rep comm.TEReport
	for i := 0; i < b.N; i++ {
		if rep, err = comm.RunTE(nt, route); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Rounds), "rounds")
	b.ReportMetric(rep.Ratio, "vs-LB")
}

// BenchmarkCorollary3TESDC simulates the total exchange under the
// single-dimension model on the 5-star (Mišić–Jovanović's
// (k+1)! + o((k+1)!) regime).
func BenchmarkCorollary3TESDC(b *testing.B) {
	nt, err := comm.StarNet(5)
	if err != nil {
		b.Fatal(err)
	}
	route, err := comm.StarRoute(5)
	if err != nil {
		b.Fatal(err)
	}
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := sim.TESDC(nt, route)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(rounds)/720.0, "vs-(k+1)!")
}

// BenchmarkTheorem6TN measures the 5-TN embedding into MS(2,2):
// dilation 5.
func BenchmarkTheorem6TN(b *testing.B) {
	e, err := embed.TNInto(core.MustNew(core.MS, 2, 2))
	m := measureEmbedding(b, e, err)
	if m.Dilation != 5 {
		b.Fatalf("dilation %d, want 5", m.Dilation)
	}
}

// BenchmarkTheorem7TNIS measures the 5-TN embedding into IS(5):
// dilation 6.
func BenchmarkTheorem7TNIS(b *testing.B) {
	e, err := embed.TNInto(mustIS(b, 5))
	m := measureEmbedding(b, e, err)
	if m.Dilation != 6 {
		b.Fatalf("dilation %d, want 6", m.Dilation)
	}
}

// BenchmarkCorollary4Tree measures the tree chain CBT → star →
// MS(2,2) (constant dilation).
func BenchmarkCorollary4Tree(b *testing.B) {
	t2s, err := embed.TreeIntoStar(5)
	if err != nil {
		b.Fatal(err)
	}
	e, err := embed.IntoNetwork(t2s, core.MustNew(core.MS, 2, 2))
	measureEmbedding(b, e, err)
}

// BenchmarkCorollary5Hypercube measures Q_d → 5-star (dilation ≤ 4,
// d = Σ⌊log₂ m⌋).
func BenchmarkCorollary5Hypercube(b *testing.B) {
	e, err := embed.HypercubeIntoStar(5)
	m := measureEmbedding(b, e, err)
	if m.Dilation > 4 {
		b.Fatalf("dilation %d > 4", m.Dilation)
	}
}

// BenchmarkCorollary6Mesh measures the folded 2-D mesh → 5-star
// (dilation ≤ 3).
func BenchmarkCorollary6Mesh(b *testing.B) {
	e, err := embed.Mesh2DIntoStar(5, 3)
	m := measureEmbedding(b, e, err)
	if m.Dilation > 3 {
		b.Fatalf("dilation %d > 3", m.Dilation)
	}
}

// BenchmarkCorollary7FactorialMesh measures the 2×3×…×6 mesh →
// 6-star (load 1, expansion 1, dilation ≤ 3).
func BenchmarkCorollary7FactorialMesh(b *testing.B) {
	e, err := embed.FactorialMeshIntoStar(6)
	m := measureEmbedding(b, e, err)
	if m.Load != 1 || m.Dilation > 3 {
		b.Fatalf("load %d dilation %d", m.Load, m.Dilation)
	}
}

// BenchmarkPropertySymmetry checks the §2 structural claims for all
// ten families at k = 5.
func BenchmarkPropertySymmetry(b *testing.B) {
	var nets []*core.Network
	for _, f := range core.Families {
		if f == core.IS {
			nets = append(nets, mustIS(b, 5))
		} else {
			nets = append(nets, core.MustNew(f, 2, 2))
		}
	}
	for i := 0; i < b.N; i++ {
		for _, nw := range nets {
			cg, err := nw.Cayley(200)
			if err != nil {
				b.Fatal(err)
			}
			mat := graph.Materialize(cg)
			for v := 0; v < mat.Order(); v++ {
				if len(mat.Neighbors(v)) != nw.Degree() {
					b.Fatalf("%s not regular", nw.Name())
				}
			}
			if !graph.LooksVertexSymmetric(mat, 6) {
				b.Fatalf("%s not vertex-symmetric", nw.Name())
			}
		}
	}
}

// BenchmarkAblationRoutingStretch measures the average stretch of the
// emulation routing vs BFS distances on MS(2,2) (ablation A1).
func BenchmarkAblationRoutingStretch(b *testing.B) {
	nw := core.MustNew(core.MS, 2, 2)
	cg, err := nw.Cayley(200)
	if err != nil {
		b.Fatal(err)
	}
	mat := graph.Materialize(cg)
	var avg float64
	for i := 0; i < b.N; i++ {
		var sumRoute, sumDist int64
		for u := 0; u < mat.Order(); u++ {
			dist := graph.BFS(mat, u)
			pu := cg.NodePerm(u)
			for v := 0; v < mat.Order(); v++ {
				if v == u {
					continue
				}
				sumRoute += int64(len(nw.Route(pu, cg.NodePerm(v))))
				sumDist += int64(dist[v])
			}
		}
		avg = float64(sumRoute) / float64(sumDist)
	}
	b.ReportMetric(avg, "stretch")
}

// BenchmarkAblationGossipPolicy compares the MNB gossip policies on
// the 5-star (ablation A3): rotating scan vs lowest-first.
func BenchmarkAblationGossipPolicy(b *testing.B) {
	nt, err := comm.StarNet(5)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []struct {
		name string
		p    sim.MNBPolicy
	}{{"rotating", sim.RotatingScan}, {"lowest-first", sim.LowestFirst}} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			var rounds int
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := sim.MNBWithPolicy(nt, sim.AllPort, pol.p)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
				ratio = res.LinkStats.Ratio()
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(ratio, "linkratio")
		})
	}
}

// BenchmarkEmulationReplay runs the full Theorem 4 all-port replay on
// the simulator (experiment E1).
func BenchmarkEmulationReplay(b *testing.B) {
	nw := core.MustNew(core.MS, 2, 2)
	var slow int
	for i := 0; i < b.N; i++ {
		var err error
		if slow, err = comm.ReplayAllPortStep(nw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(slow), "slowdown")
}

// BenchmarkRoutingPerFamily times unicast routing on each family
// (k = 7 instances where possible).
func BenchmarkRoutingPerFamily(b *testing.B) {
	nets := []*core.Network{
		core.MustNew(core.MS, 3, 2),
		core.MustNew(core.CompleteRS, 3, 2),
		core.MustNew(core.MIS, 3, 2),
		core.MustNew(core.RR, 3, 2),
	}
	is, err := core.NewIS(7)
	if err != nil {
		b.Fatal(err)
	}
	nets = append(nets, is)
	for _, nw := range nets {
		nw := nw
		b.Run(nw.Name(), func(b *testing.B) {
			u := perm.Unrank(nw.K(), 1234)
			v := perm.Unrank(nw.K(), 4321)
			var hops int
			for i := 0; i < b.N; i++ {
				hops = len(nw.Route(u, v))
			}
			b.ReportMetric(float64(hops), "hops")
		})
	}
}
