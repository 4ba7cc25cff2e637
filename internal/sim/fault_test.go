package sim

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// bfsRouter builds a Router for any Net from its BFS trees: Route
// returns a shortest port path, Alternates lists every port (greedy
// candidates first by resulting BFS distance to dst).
func bfsRouter(t *testing.T, nt *Net) Router {
	t.Helper()
	n, d := nt.N(), nt.Ports()
	// distTo[dst][v] = BFS distance from v to dst, computed by reverse
	// BFS on the out-port graph; memoized lazily under mu, because
	// RouteSweep calls the router from parallel workers.
	var mu sync.Mutex
	distTo := make(map[int][]int32)
	rev := make([][]int32, n) // in-neighbors
	for v := 0; v < n; v++ {
		for p := 0; p < d; p++ {
			w := nt.Neighbor(v, p)
			rev[w] = append(rev[w], int32(v))
		}
	}
	dist := func(dst int) []int32 {
		mu.Lock()
		defer mu.Unlock()
		if d, ok := distTo[dst]; ok {
			return d
		}
		dd := make([]int32, n)
		for i := range dd {
			dd[i] = -1
		}
		dd[dst] = 0
		queue := []int32{int32(dst)}
		for at := 0; at < len(queue); at++ {
			w := queue[at]
			for _, u := range rev[w] {
				if dd[u] < 0 {
					dd[u] = dd[w] + 1
					queue = append(queue, u)
				}
			}
		}
		distTo[dst] = dd
		return dd
	}
	return Router{
		Route: func(src, dst int) ([]int, error) {
			dd := dist(dst)
			var ports []int
			for cur := src; cur != dst; {
				found := false
				for p := 0; p < d; p++ {
					if w := nt.Neighbor(cur, p); dd[w] == dd[cur]-1 {
						ports = append(ports, p)
						cur = w
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("no descending step from %d toward %d", cur, dst)
				}
			}
			return ports, nil
		},
		Alternates: func(cur, dst int) ([]int, error) {
			dd := dist(dst)
			ports := make([]int, 0, d)
			// Descending ports first, then the rest in port order.
			for p := 0; p < d; p++ {
				if dd[nt.Neighbor(cur, p)] == dd[cur]-1 {
					ports = append(ports, p)
				}
			}
			for p := 0; p < d; p++ {
				if dd[nt.Neighbor(cur, p)] != dd[cur]-1 {
					ports = append(ports, p)
				}
			}
			return ports, nil
		},
	}
}

func TestFromSetBoundary(t *testing.T) {
	// 8! = 40320 fits under MaxSimNodes, 9! = 362880 does not.
	nt, err := FromSet("star-8", starSet(t, 8))
	if err != nil {
		t.Fatalf("star 8 (40320 nodes) must fit: %v", err)
	}
	if nt.N() != 40320 {
		t.Fatalf("star 8 has %d nodes, want 40320", nt.N())
	}
	_, err = FromSet("star-9", starSet(t, 9))
	if err == nil {
		t.Fatal("star 9 (362880 nodes) must exceed MaxSimNodes")
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error %v must match ErrTooLarge", err)
	}
	var tle *TooLargeError
	if !errors.As(err, &tle) {
		t.Fatalf("error %v must be a *TooLargeError", err)
	}
	if tle.Nodes != 362880 || tle.Limit != MaxSimNodes || tle.Name != "star-9" {
		t.Fatalf("TooLargeError fields wrong: %+v", tle)
	}
}

func TestFaultPlanDeterministicAndCounts(t *testing.T) {
	nt := starNet(t, 5)
	n, d := nt.N(), nt.Ports()
	for _, mode := range []FaultMode{FaultRandom, FaultTargeted, FaultRegion} {
		spec := FaultSpec{Mode: mode, Seed: 11, NodeFrac: 0.1, LinkFrac: 0.05, Onset: 3}
		a, err := NewFaultPlan(nt, spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewFaultPlan(nt, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v plan not deterministic", mode)
		}
		if want := int(0.1 * float64(n)); a.NodeFaults() != want {
			t.Fatalf("%v: %d node faults, want %d", mode, a.NodeFaults(), want)
		}
		if want := int(0.05 * float64(n) * float64(d)); a.LinkFaults() != want {
			t.Fatalf("%v: %d link faults, want %d", mode, a.LinkFaults(), want)
		}
		if a.Empty() {
			t.Fatalf("%v plan with faults reports Empty", mode)
		}
	}
}

func TestFaultPlanOnsetSemantics(t *testing.T) {
	nt := starNet(t, 4)
	plan, err := NewFaultPlan(nt, FaultSpec{Mode: FaultRandom, Seed: 2, NodeFrac: 0.2, Onset: 5})
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for v := 0; v < nt.N(); v++ {
		if plan.NodeDead(v) {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Fatal("no victim scheduled")
	}
	if !plan.NodeAlive(victim, 4) {
		t.Fatal("victim must be alive before its onset round")
	}
	if plan.NodeAlive(victim, 5) {
		t.Fatal("victim must be dead from its onset round on")
	}
	// Usable honors both endpoints and the link.
	for p := 0; p < nt.Ports(); p++ {
		w := nt.Neighbor(victim, p)
		if !nt.Usable(plan, victim, p, 4) && !plan.NodeDead(w) {
			t.Fatal("link from victim must be usable before onset")
		}
		if nt.Usable(plan, victim, p, 5) {
			t.Fatal("link from dead victim must be unusable after onset")
		}
	}
	// The empty plan (and nil) is pristine everywhere.
	empty, err := NewFaultPlan(nt, FaultSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Empty() {
		t.Fatal("zero spec must give the empty plan")
	}
	var nilPlan *FaultPlan
	if !nilPlan.Empty() || nilPlan.NodeDead(0) || !nilPlan.NodeAlive(0, 0) {
		t.Fatal("nil plan must be pristine")
	}
	if !nt.Usable(empty, 0, 0, 0) || !nt.Usable(nil, 0, 0, 0) {
		t.Fatal("empty/nil plans must keep every link usable")
	}
}

func TestFaultPlanRejectsBadSpecs(t *testing.T) {
	nt := starNet(t, 4)
	for _, spec := range []FaultSpec{
		{NodeFrac: -0.1},
		{NodeFrac: 1.0},
		{LinkFrac: 1.5},
		{Onset: -1},
		{Mode: FaultMode(99), NodeFrac: 0.1},
	} {
		if _, err := NewFaultPlan(nt, spec); err == nil {
			t.Fatalf("spec %+v must be rejected", spec)
		}
	}
}

func TestRouteSweepEmptyPlanMatchesLegacyRoutes(t *testing.T) {
	// With no faults the adaptive walker must follow the precomputed
	// route exactly: full delivery, stretch exactly 1, no detours.
	nt := starNet(t, 5)
	router := bfsRouter(t, nt)
	res, err := RouteSweep(nt, router, nil, 400, 7, ReroutePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 400 || res.DeliveredFraction != 1.0 {
		t.Fatalf("empty plan must deliver everything: %v", res)
	}
	if res.MeanStretch != 1.0 || res.MaxStretch != 1.0 || res.Detours != 0 {
		t.Fatalf("empty plan must walk the optimal routes exactly: %v", res)
	}
	if !res.Survivors.Connected || res.Survivors.Alive != nt.N() {
		t.Fatalf("empty plan survivor report wrong: %v", res.Survivors)
	}
	// The empty (non-nil) plan behaves identically.
	empty, err := NewFaultPlan(nt, FaultSpec{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RouteSweep(nt, router, empty, 400, 7, ReroutePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("nil and empty plans disagree:\n%v\n%v", res, res2)
	}
}

func TestRouteSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	nt := starNet(t, 5)
	router := bfsRouter(t, nt)
	plan, err := NewFaultPlan(nt, FaultSpec{Mode: FaultRandom, Seed: 5, NodeFrac: 0.1, LinkFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) SweepResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := RouteSweep(nt, router, plan, 500, 9, ReroutePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := run(1), run(4)
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("sweep differs across GOMAXPROCS:\n1: %v\n4: %v", r1, r4)
	}
	// And across repeated runs at the same setting.
	if again := run(4); !reflect.DeepEqual(r4, again) {
		t.Fatalf("sweep not reproducible: %v vs %v", r4, again)
	}
}

func TestRouteSweepDetoursAroundKilledLink(t *testing.T) {
	// Kill exactly the first-hop link of a specific route; the walker
	// must still deliver, using at least one detour.
	nt := starNet(t, 5)
	router := bfsRouter(t, nt)
	src, dst := 0, nt.N()-1
	route, err := router.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) == 0 {
		t.Fatal("test needs a nontrivial route")
	}
	plan := &FaultPlan{d: nt.Ports(), nodeAt: make([]int32, nt.N()), linkAt: make([]int32, nt.N()*nt.Ports())}
	for i := range plan.nodeAt {
		plan.nodeAt[i] = neverFails
	}
	for i := range plan.linkAt {
		plan.linkAt[i] = neverFails
	}
	plan.linkAt[src*nt.Ports()+route[0]] = 0 // dead from round 0
	plan.links = 1
	res, err := routeOne(nt, router, plan, ReroutePolicy{}, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.outcome != PairDelivered {
		t.Fatalf("packet must still be delivered, got %v", res.outcome)
	}
	if res.detours == 0 {
		t.Fatal("delivery around a dead first-hop link needs a detour")
	}
}

func TestRouteSweepDeadEndpoints(t *testing.T) {
	nt := starNet(t, 4)
	router := bfsRouter(t, nt)
	plan := &FaultPlan{d: nt.Ports(), nodeAt: make([]int32, nt.N()), linkAt: make([]int32, nt.N()*nt.Ports())}
	for i := range plan.nodeAt {
		plan.nodeAt[i] = neverFails
	}
	for i := range plan.linkAt {
		plan.linkAt[i] = neverFails
	}
	plan.nodeAt[3] = 0
	plan.nodes = 1
	if r, err := routeOne(nt, router, plan, ReroutePolicy{}, 3, 5); err != nil || r.outcome != PairSourceDead {
		t.Fatalf("dead source: got %v, %v", r.outcome, err)
	}
	if r, err := routeOne(nt, router, plan, ReroutePolicy{}, 5, 3); err != nil || r.outcome != PairDestDead {
		t.Fatalf("dead destination: got %v, %v", r.outcome, err)
	}
}

func TestRouteSweepIsolatedDestinationUnreachable(t *testing.T) {
	// Kill every in-link of one node: pairs into it must classify as
	// unreachable (graceful degradation), not aborted.
	nt := starNet(t, 4)
	router := bfsRouter(t, nt)
	n, d := nt.N(), nt.Ports()
	target := 7
	plan := &FaultPlan{d: d, nodeAt: make([]int32, n), linkAt: make([]int32, n*d)}
	for i := range plan.nodeAt {
		plan.nodeAt[i] = neverFails
	}
	for i := range plan.linkAt {
		plan.linkAt[i] = neverFails
	}
	for v := 0; v < n; v++ {
		for p := 0; p < d; p++ {
			if nt.Neighbor(v, p) == target {
				plan.linkAt[v*d+p] = 0
				plan.links++
			}
		}
	}
	res, err := RouteSweep(nt, router, plan, 200, 3, ReroutePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unreachable == 0 {
		t.Fatalf("pairs into the isolated node must reclassify as unreachable: %v", res)
	}
	// Aborts on *reachable* destinations are allowed (bounded detour
	// budget) but must stay rare next to the true disconnections.
	if res.Aborted > res.Unreachable {
		t.Fatalf("aborted (%d) should not dominate unreachable (%d): %v", res.Aborted, res.Unreachable, res)
	}
	if res.DestDead != 0 {
		t.Fatalf("no node is dead, only links: %v", res)
	}
	if res.Survivors.Connected {
		t.Fatal("survivor graph with an isolated node cannot be connected")
	}
}

func TestMNBFaultyEmptyPlanMatchesLegacy(t *testing.T) {
	nt := starNet(t, 5)
	for _, model := range []Model{AllPort, SinglePort, SDC} {
		legacy, err := MNBWithPolicy(nt, model, RotatingScan)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*FaultPlan{nil, mustEmptyPlan(t, nt)} {
			got, err := MNBFaulty(nt, model, RotatingScan, plan)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rounds != legacy.Rounds || got.Sends != legacy.Sends || got.LinkStats != legacy.LinkStats {
				t.Fatalf("%v: faulty MNB with empty plan diverges:\nlegacy %+v\nfaulty %+v", model, legacy, got)
			}
			if got.Coverage != 1.0 || got.Stalled {
				t.Fatalf("%v: empty plan must reach full coverage: %+v", model, got)
			}
		}
	}
}

func mustEmptyPlan(t *testing.T, nt *Net) *FaultPlan {
	t.Helper()
	plan, err := NewFaultPlan(nt, FaultSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestMNBFaultyCoverageUnderFaults(t *testing.T) {
	nt := starNet(t, 5)
	plan, err := NewFaultPlan(nt, FaultSpec{Mode: FaultRandom, Seed: 4, NodeFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MNBFaulty(nt, AllPort, RotatingScan, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != nt.N()-plan.NodeFaults() {
		t.Fatalf("survivors %d, want %d", res.Survivors, nt.N()-plan.NodeFaults())
	}
	if res.Coverage != 1.0 {
		t.Fatalf("onset-0 faults on a connected survivor graph must reach full coverage: %+v", res)
	}
	if res.Expected >= int64(nt.N())*int64(nt.N()) {
		t.Fatalf("expected deliveries must shrink under faults: %+v", res)
	}
}
