package sim

import (
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

func starSet(t *testing.T, k int) *gens.Set {
	t.Helper()
	gs := make([]gens.Generator, 0, k-1)
	for i := 2; i <= k; i++ {
		gs = append(gs, gens.Transposition(k, i))
	}
	set, err := gens.NewSet(gs...)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func starNet(t *testing.T, k int) *Net {
	t.Helper()
	nt, err := FromSet("star", starSet(t, k))
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func TestFromSetNeighborTables(t *testing.T) {
	nt := starNet(t, 4)
	if nt.N() != 24 || nt.Ports() != 3 || nt.k != 4 {
		t.Fatalf("params wrong: N=%d ports=%d", nt.N(), nt.Ports())
	}
	// Neighbor tables must agree with generator application.
	set := nt.Set()
	for v := 0; v < nt.N(); v++ {
		p := perm.Unrank(4, int64(v))
		for port := 0; port < nt.Ports(); port++ {
			want := int(set.At(port).Apply(p).Rank())
			if nt.Neighbor(v, port) != want {
				t.Fatalf("neighbor(%d,%d) = %d, want %d", v, port, nt.Neighbor(v, port), want)
			}
		}
	}
}

func TestFromSetSizeLimit(t *testing.T) {
	if _, err := FromSet("too-big", starSet(t, 9)); err == nil {
		t.Fatal("9! = 362880 nodes should exceed the simulation limit")
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	if b.full(130) {
		t.Fatal("empty bitset full")
	}
	for i := 0; i < 130; i++ {
		b.set(i)
	}
	if !b.full(130) {
		t.Fatal("all-set bitset not full")
	}
	a := newBitset(130)
	a.set(77)
	a.set(5)
	if got := firstMissing(a, newBitset(130), 130); got != 5 {
		t.Fatalf("firstMissing = %d, want 5", got)
	}
	c := newBitset(130)
	c.set(5)
	if got := firstMissing(a, c, 130); got != 77 {
		t.Fatalf("firstMissing = %d, want 77", got)
	}
	if got := firstMissing(a, a, 130); got != -1 {
		t.Fatalf("firstMissing identical = %d, want -1", got)
	}
}

func TestMNBAllPortCompletesNearLowerBound(t *testing.T) {
	nt := starNet(t, 5)
	res, err := MNB(nt, AllPort)
	if err != nil {
		t.Fatal(err)
	}
	lb := MNBLowerBound(nt.N(), nt.Ports(), AllPort)
	if res.Rounds < lb {
		t.Fatalf("rounds %d below lower bound %d", res.Rounds, lb)
	}
	if res.Rounds > 4*lb {
		t.Errorf("rounds %d more than 4× lower bound %d — gossip unexpectedly slow", res.Rounds, lb)
	}
	// Every packet crosses every link at most ... total sends at least
	// N(N-1) receptions.
	if res.Sends < int64(nt.N())*int64(nt.N()-1) {
		t.Errorf("only %d sends; each node must receive N-1 packets", res.Sends)
	}
}

func TestMNBSDCCompletesNearLowerBound(t *testing.T) {
	nt := starNet(t, 5)
	res, err := MNB(nt, SDC)
	if err != nil {
		t.Fatal(err)
	}
	lb := MNBLowerBound(nt.N(), nt.Ports(), SDC) // N-1
	if res.Rounds < lb {
		t.Fatalf("rounds %d below lower bound %d", res.Rounds, lb)
	}
	if res.Rounds > 4*lb {
		t.Errorf("SDC rounds %d more than 4× lower bound %d", res.Rounds, lb)
	}
}

func TestMNBSinglePortCompletes(t *testing.T) {
	nt := starNet(t, 5)
	res, err := MNB(nt, SinglePort)
	if err != nil {
		t.Fatal(err)
	}
	lb := MNBLowerBound(nt.N(), nt.Ports(), SinglePort)
	if res.Rounds < lb || res.Rounds > 6*lb {
		t.Errorf("single-port rounds %d vs lower bound %d", res.Rounds, lb)
	}
}

func TestMNBTrafficUniform(t *testing.T) {
	// The paper claims traffic is balanced within a constant factor on
	// vertex-symmetric networks.
	nt := starNet(t, 5)
	res, err := MNB(nt, AllPort)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkStats.Ratio() > 3.0 {
		t.Errorf("link traffic ratio %.2f — not uniform within a small constant", res.LinkStats.Ratio())
	}
}

func TestMNBMemoryGuard(t *testing.T) {
	nt := starNet(t, 8)
	if _, err := MNB(nt, AllPort); err == nil {
		t.Skip("8-star MNB fits in the memory budget on this build")
	}
}

func TestTEStarCompletes(t *testing.T) {
	nt := starNet(t, 5)
	k := 5
	route := func(src, dst int) ([]int, error) {
		u, v := perm.Unrank(k, int64(src)), perm.Unrank(k, int64(dst))
		// Greedy star routing: reuse the generator set directly.
		cur := u.Clone()
		var ports []int
		for !cur.Equal(v) {
			w := v.Inverse().Compose(cur)
			x := int(w[0])
			j := 0
			if x != 1 {
				j = x
			} else {
				for i := 1; i < k; i++ {
					if int(w[i]) != i+1 {
						j = i + 1
						break
					}
				}
			}
			ports = append(ports, j-2)
			cur = nt.Set().At(j - 2).Apply(cur)
		}
		return ports, nil
	}
	res, err := TE(nt, route)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(nt.N()) * int64(nt.N()-1)
	if res.Delivered != want {
		t.Fatalf("delivered %d of %d", res.Delivered, want)
	}
	lb := TELowerBound(nt.N(), nt.Ports(), res.TotalHops)
	if res.Rounds < lb {
		t.Fatalf("rounds %d below lower bound %d", res.Rounds, lb)
	}
	if res.Rounds > 6*lb {
		t.Errorf("TE rounds %d more than 6× lower bound %d", res.Rounds, lb)
	}
	if res.LinkStats.Ratio() > 4.0 {
		t.Errorf("TE link ratio %.2f not uniform", res.LinkStats.Ratio())
	}
}

func TestTERejectsBadRoutes(t *testing.T) {
	nt := starNet(t, 4)
	if _, err := TE(nt, func(src, dst int) ([]int, error) {
		return nil, nil // empty route
	}); err == nil {
		t.Error("TE accepted empty routes")
	}
	if _, err := TE(nt, func(src, dst int) ([]int, error) {
		return []int{99}, nil
	}); err == nil {
		t.Error("TE accepted invalid port")
	}
}

func TestModelStrings(t *testing.T) {
	if AllPort.String() != "all-port" || SDC.String() != "single-dimension" || SinglePort.String() != "single-port" {
		t.Fatal("model strings wrong")
	}
}

func TestLinkStatsRatio(t *testing.T) {
	ls := statsOf([]int{2, 4, 4, 2})
	if ls.Min != 2 || ls.Max != 4 || ls.Mean != 3 || ls.Ratio() != 2 {
		t.Fatalf("stats wrong: %+v", ls)
	}
	if (LinkStats{}).Ratio() != 1 {
		t.Fatal("empty ratio should be 1")
	}
	withIdle := statsOf([]int{0, 5, 10})
	if withIdle.Idle != 1 || withIdle.Min != 5 || withIdle.Ratio() != 2 {
		t.Fatalf("idle stats wrong: %+v", withIdle)
	}
}
