// The scg:deterministic directive covers every subcommand in this
// file: scglint bans wall-clock reads and global randomness, so each
// run is reproducible from its flags alone.  The observability
// commands (serve, stats) legitimately need the clock and the network
// and live in serve.go, outside the directive.  See doc.go for the
// package documentation.
//
//scg:deterministic
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"supercayley/internal/bag"
	"supercayley/internal/comm"
	"supercayley/internal/core"
	"supercayley/internal/embed"
	"supercayley/internal/experiments"
	"supercayley/internal/graph"
	"supercayley/internal/perm"
	"supercayley/internal/schedule"
	"supercayley/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = cmdInfo(args)
	case "route":
		err = cmdRoute(args)
	case "schedule":
		err = cmdSchedule(args)
	case "embed":
		err = cmdEmbed(args)
	case "bag":
		err = cmdBag(args)
	case "tasks":
		err = cmdTasks(args)
	case "faults":
		err = cmdFaults(args)
	case "serve":
		err = cmdServe(args)
	case "stats":
		err = cmdStats(args)
	case "export":
		err = cmdExport(args)
	case "compare":
		err = cmdCompare(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "scg: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scg %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// usageText is the command roster usage() prints.  A test parses the
// subcommand switch in main() and asserts every case is listed here,
// so adding a command without documenting it fails the build.
const usageText = `scg — super Cayley graphs (Yeh–Varvarigos–Lee, PaCT-99)

commands:
  info      network parameters, degree, diameter (small instances)
  route     route a packet between two permutation-labelled nodes
  schedule  all-port star-emulation schedule (Theorems 4–5, Figure 1)
  embed     measure an embedding (Theorems 6–7, Corollaries 4–7)
  bag       solve a scrambled ball-arrangement game
  tasks     simulate MNB / TE communication tasks (Corollaries 2–3)
  faults    inject node/link faults, reroute adaptively, report degradation
  serve     routing service + debug endpoint: /route, /route/bulk (batched, admission-controlled), /metrics, /metrics.json, /trace/routes, /debug/vars, /debug/pprof/*; -shards/-store for the sharded engine with warm-state snapshots
  stats     route a seeded workload, then dump the metrics registry once
  export    write the network as Graphviz DOT
  compare   degree/diameter table across families and k

run "scg <command> -h" for flags`

func usage() {
	fmt.Fprintln(os.Stderr, usageText)
}

// seededRand builds the one explicitly seeded generator a subcommand
// threads through its run.  Subcommands that hand off to library code
// (sim.FaultSpec) pass the seed itself; either way the -seed flag is
// the sole source of randomness.
func seededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// netFlags adds the family/l/n/k flags and resolves them to a network.
type netFlags struct {
	family *string
	l, n   *int
	k      *int
}

func addNetFlags(fs *flag.FlagSet) *netFlags {
	return &netFlags{
		family: fs.String("family", "MS", "network family (MS, RS, Complete-RS, MR, RR, Complete-RR, IS, MIS, RIS, Complete-RIS)"),
		l:      fs.Int("l", 2, "number of boxes (ignored for IS)"),
		n:      fs.Int("n", 2, "balls per box (ignored for IS)"),
		k:      fs.Int("k", 5, "symbols for IS networks (k = nl+1 otherwise)"),
	}
}

func (nf *netFlags) network() (*core.Network, error) {
	f, err := core.ParseFamily(*nf.family)
	if err != nil {
		return nil, err
	}
	if f == core.IS {
		return core.NewIS(*nf.k)
	}
	return core.New(f, *nf.l, *nf.n)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	nf := addNetFlags(fs)
	analyze := fs.Bool("analyze", true, "BFS analytics when the graph is small enough")
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	fmt.Printf("network:    %s\n", nw.Name())
	fmt.Printf("symbols:    k = %d (l = %d boxes × n = %d balls + outside ball)\n", nw.K(), nw.L(), nw.BoxSize())
	fmt.Printf("nodes:      N = k! = %d\n", nw.N())
	fmt.Printf("degree:     %d (%d nucleus + %d super generators)\n",
		nw.Degree(), len(nw.Set().Nucleus()), len(nw.Set().Super()))
	fmt.Printf("directed:   %v\n", nw.Directed())
	fmt.Printf("generators: %s\n", strings.Join(nw.Set().Names(), " "))
	fmt.Printf("star dilation (Theorems 1-3): %d\n", nw.MaxDilation())
	if b := schedule.TheoremBound(nw); b > 0 {
		fmt.Printf("all-port slowdown bound (Theorems 4-5): %d\n", b)
	}
	if *analyze && nw.N() <= 45000 {
		cg, err := nw.Cayley(45000)
		if err != nil {
			return err
		}
		csr := graph.NewCSRFromCayley(cg)
		stats := csr.Stats(0)
		fmt.Printf("diameter:   %d (universal lower bound DL(d,N) = %d)\n",
			stats.Ecc, graph.DiameterLowerBound(nw.Degree(), nw.N()))
		fmt.Printf("mean dist:  %.3f\n", stats.Mean)
		fmt.Printf("symmetric:  %v (distance-profile check)\n", csr.LooksVertexSymmetric(8))
	}
	return nil
}

func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	nf := addNetFlags(fs)
	from := fs.String("from", "", "source permutation, e.g. \"(3 1 4 5 2)\" or \"31452\"")
	to := fs.String("to", "", "destination permutation (default: identity)")
	batched := fs.Bool("batched", false, "use the batched ball-arrangement router instead of star emulation")
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	u, err := perm.Parse(*from)
	if err != nil {
		return fmt.Errorf("-from: %w", err)
	}
	v := perm.Identity(nw.K())
	if *to != "" {
		if v, err = perm.Parse(*to); err != nil {
			return fmt.Errorf("-to: %w", err)
		}
	}
	if u.K() != nw.K() || v.K() != nw.K() {
		return fmt.Errorf("permutations must have %d symbols", nw.K())
	}
	seq := nw.Route(u, v)
	if *batched {
		seq = nw.RouteBatched(u, v)
	}
	fmt.Printf("route on %s from %v to %v (%d hops, star distance %d):\n",
		nw.Name(), u, v, len(seq), nw.Star().Distance(u, v))
	cur := u
	for i, g := range seq {
		cur = g.Apply(cur)
		fmt.Printf("  %2d. %-4s -> %v\n", i+1, g.Name(), cur)
	}
	return nil
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	nf := addNetFlags(fs)
	usePaper := fs.Bool("paper", false, "use the paper's explicit l=rn+1 construction (MS/Complete-RS only)")
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	var s *schedule.Schedule
	if *usePaper {
		s, err = schedule.Paper(nw)
	} else {
		s, err = schedule.Build(nw)
	}
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return err
	}
	fmt.Print(s.Render())
	if b := schedule.TheoremBound(nw); b > 0 {
		fmt.Printf("theorem bound: %d, achieved: %d\n", b, s.Makespan)
	}
	return nil
}

func cmdEmbed(args []string) error {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	nf := addNetFlags(fs)
	guest := fs.String("guest", "star", "guest graph: star, tn, bubble, hypercube, mesh, tree")
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	var e *embed.Embedding
	switch *guest {
	case "star":
		e, err = embed.StarInto(nw)
	case "tn":
		e, err = embed.TNInto(nw)
	case "bubble":
		e, err = embed.BubbleSortInto(nw)
	case "hypercube":
		var q2s *embed.Embedding
		if q2s, err = embed.HypercubeIntoStar(nw.K()); err == nil {
			e, err = embed.IntoNetwork(q2s, nw)
		}
	case "mesh":
		var m2s *embed.Embedding
		if m2s, err = embed.FactorialMeshIntoStar(nw.K()); err == nil {
			e, err = embed.IntoNetwork(m2s, nw)
		}
	case "tree":
		var t2s *embed.Embedding
		if t2s, err = embed.TreeIntoStar(nw.K()); err == nil {
			e, err = embed.IntoNetwork(t2s, nw)
		}
	default:
		return fmt.Errorf("unknown guest %q", *guest)
	}
	if err != nil {
		return err
	}
	m, err := e.Measure()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n  %v\n", e.Name, m)
	return nil
}

func cmdBag(args []string) error {
	fs := flag.NewFlagSet("bag", flag.ExitOnError)
	nf := addNetFlags(fs)
	seed := fs.Int64("seed", 1, "scramble seed")
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	r := seededRand(*seed)
	start := perm.Random(r, nw.K())
	game, err := bag.NewGame(nw, start)
	if err != nil {
		return err
	}
	fmt.Printf("ball-arrangement game on %s\n", nw.Name())
	fmt.Printf("scrambled: %v\n", game.State)
	moves, err := game.SolveAndApply()
	if err != nil {
		return err
	}
	names := make([]string, len(moves))
	for i, m := range moves {
		names[i] = m.Name()
	}
	fmt.Printf("solved in %d moves: %s\n", len(moves), strings.Join(names, " "))
	fmt.Printf("final:     %v\n", game.State)
	return nil
}

func cmdTasks(args []string) error {
	fs := flag.NewFlagSet("tasks", flag.ExitOnError)
	nf := addNetFlags(fs)
	task := fs.String("task", "mnb", "task: mnb or te")
	model := fs.String("model", "all-port", "model: all-port, single-port, sdc")
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	var m sim.Model
	switch *model {
	case "all-port":
		m = sim.AllPort
	case "single-port":
		m = sim.SinglePort
	case "sdc":
		m = sim.SDC
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	nt, err := comm.SCGNet(nw)
	if err != nil {
		return err
	}
	switch *task {
	case "mnb":
		rep, err := comm.RunMNB(nt, m)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		starRounds, slowdown, emulated, err := comm.EmulatedMNB(nw, m)
		if err == nil {
			fmt.Printf("emulated via %d-star: %d star rounds × slowdown %d = %d rounds\n",
				nw.K(), starRounds, slowdown, emulated)
		}
	case "te":
		if m != sim.AllPort {
			return fmt.Errorf("TE simulation supports the all-port model")
		}
		rep, err := comm.RunTE(nt, comm.SCGRoute(nw))
		if err != nil {
			return err
		}
		fmt.Println(rep)
	default:
		return fmt.Errorf("unknown task %q", *task)
	}
	return nil
}

func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	nf := addNetFlags(fs)
	mode := fs.String("mode", "random", "fault mode: random, targeted, region")
	nodeFrac := fs.Float64("nodefrac", 0.05, "fraction of nodes to kill")
	linkFrac := fs.Float64("linkfrac", 0, "fraction of directed links to kill")
	seed := fs.Int64("seed", 1, "fault-plan and pair-sample seed")
	onset := fs.Int("onset", 0, "round at which the faults strike")
	pairs := fs.Int("pairs", 1000, "routed (src, dst) pairs (route task)")
	task := fs.String("task", "route", "task: route or mnb")
	model := fs.String("model", "all-port", "MNB model: all-port, single-port, sdc")
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	fm, err := sim.ParseFaultMode(*mode)
	if err != nil {
		return err
	}
	spec := sim.FaultSpec{Mode: fm, Seed: *seed, NodeFrac: *nodeFrac, LinkFrac: *linkFrac, Onset: *onset}
	switch *task {
	case "route":
		rep, err := comm.RunFaultSweep(nw, spec, *pairs, *seed, sim.ReroutePolicy{})
		if err != nil {
			return err
		}
		fmt.Printf("plan:  %s\n", rep.Plan)
		fmt.Printf("sweep: %v\n", rep.SweepResult)
		fmt.Printf("graph: %v\n", rep.SweepResult.Survivors)
	case "mnb":
		var m sim.Model
		switch *model {
		case "all-port":
			m = sim.AllPort
		case "single-port":
			m = sim.SinglePort
		case "sdc":
			m = sim.SDC
		default:
			return fmt.Errorf("unknown model %q", *model)
		}
		rep, err := comm.RunFaultyMNB(nw, m, spec)
		if err != nil {
			return err
		}
		fmt.Printf("plan: %s\n", rep.Plan)
		fmt.Printf("mnb:  %v\n", rep.FaultyMNBResult)
	default:
		return fmt.Errorf("unknown task %q", *task)
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	nf := addNetFlags(fs)
	out := fs.String("out", "", "output file (default: stdout)")
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	if nw.N() > 45000 {
		return fmt.Errorf("network too large to export (%d nodes)", nw.N())
	}
	cg, err := nw.Cayley(45000)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return graph.WriteDOT(w, graph.NewCSRFromCayley(cg), nw.Name(), func(v int) string {
		return cg.NodePerm(v).Compact()
	})
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.Parse(args)
	out, err := experiments.Compare()
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
