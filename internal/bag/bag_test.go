package bag

import (
	"math/rand"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// solvedState is the goal configuration for l boxes of n balls.
func solvedState(t *testing.T, l, n int) *State {
	t.Helper()
	s, err := FromPerm(perm.Identity(l*n+1), l, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolvedState(t *testing.T) {
	s := solvedState(t, 3, 2)
	if !s.Solved() {
		t.Fatal("solved state not solved")
	}
	if s.L() != 3 || s.N() != 2 {
		t.Fatalf("layout wrong: l=%d n=%d", s.L(), s.N())
	}
	if !s.ToPerm().IsIdentity() {
		t.Fatalf("solved state perm %v", s.ToPerm())
	}
	if s.String() != "[1] |2 3|4 5|6 7|" {
		t.Fatalf("render %q", s.String())
	}
}

func TestFromPermToPermRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		l, n := 2+r.Intn(3), 1+r.Intn(3)
		p := perm.Random(r, l*n+1)
		s, err := FromPerm(p, l, n)
		if err != nil {
			t.Fatal(err)
		}
		if !s.ToPerm().Equal(p) {
			t.Fatalf("round trip failed: %v -> %v", p, s.ToPerm())
		}
	}
	if _, err := FromPerm(perm.Identity(5), 3, 2); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestOperationalMovesMatchGenerators(t *testing.T) {
	// The paper's central modelling claim (Section 2): the game's
	// state transition graph IS the Cayley graph.  Verify every
	// family's every generator against the operational ball/box moves
	// on random states.
	r := rand.New(rand.NewSource(2))
	nets := []*core.Network{
		core.MustNew(core.MS, 3, 2),
		core.MustNew(core.RS, 3, 2),
		core.MustNew(core.CompleteRS, 4, 2),
		core.MustNew(core.MR, 3, 2),
		core.MustNew(core.RR, 3, 2),
		core.MustNew(core.CompleteRR, 3, 2),
		core.MustNew(core.MIS, 2, 3),
		core.MustNew(core.RIS, 3, 2),
		core.MustNew(core.CompleteRIS, 3, 2),
	}
	if is, err := core.NewIS(6); err == nil {
		nets = append(nets, is)
	} else {
		t.Fatal(err)
	}
	for _, nw := range nets {
		for i := 0; i < nw.Set().Len(); i++ {
			g := nw.Set().At(i)
			for trial := 0; trial < 10; trial++ {
				p := perm.Random(r, nw.K())
				s, err := FromPerm(p, nw.L(), nw.BoxSize())
				if err != nil {
					t.Fatal(err)
				}
				if err := s.ApplyGenerator(g); err != nil {
					t.Fatalf("%s move %s: %v", nw.Name(), g.Name(), err)
				}
				want := g.Apply(p)
				if !s.ToPerm().Equal(want) {
					t.Fatalf("%s move %s on %v: operational %v != algebraic %v",
						nw.Name(), g.Name(), p, s.ToPerm(), want)
				}
			}
		}
	}
}

func TestMoveRangeErrors(t *testing.T) {
	s := solvedState(t, 2, 2)
	if err := s.TransposeBall(5); err == nil {
		t.Error("transpose out of range accepted")
	}
	if err := s.InsertBall(1); err == nil {
		t.Error("insert out of range accepted")
	}
	if err := s.SelectBall(9); err == nil {
		t.Error("select out of range accepted")
	}
	if err := s.SwapBoxes(3); err == nil {
		t.Error("swap out of range accepted")
	}
}

func TestRotateBoxesWraps(t *testing.T) {
	s := solvedState(t, 4, 1)
	s.RotateBoxes(4)
	if !s.Solved() {
		t.Fatal("full rotation should be identity")
	}
	s.RotateBoxes(1)
	forward := s.ToPerm()
	s.RotateBoxes(-1)
	if !s.Solved() {
		t.Fatal("rotate back should restore")
	}
	s.RotateBoxes(-3)
	if !s.ToPerm().Equal(forward) {
		t.Fatal("rotate -3 should equal rotate +1 for l=4")
	}
}

func TestGameSolve(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nets := []*core.Network{
		core.MustNew(core.MS, 3, 2),
		core.MustNew(core.CompleteRS, 3, 2),
		core.MustNew(core.MIS, 3, 2),
		core.MustNew(core.RR, 3, 2),
	}
	is, err := core.NewIS(7)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, is)
	for _, nw := range nets {
		for trial := 0; trial < 20; trial++ {
			start := perm.Random(r, nw.K())
			g, err := NewGame(nw, start)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := g.SolveAndApply()
			if err != nil {
				t.Fatalf("%s: %v", nw.Name(), err)
			}
			if !g.State.Solved() {
				t.Fatalf("%s: unsolved after %d moves", nw.Name(), len(seq))
			}
			// Moves must all be legal (members of the generator set).
			for _, m := range seq {
				if nw.Set().IndexOfAction(m) < 0 {
					t.Fatalf("%s: illegal move %s", nw.Name(), m.Name())
				}
			}
		}
	}
}

// TestGameMoveByName plays moves looked up by generator name.
func TestGameMoveByName(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	g, err := NewGame(nw, perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	t2, ok := nw.Set().ByName("T2")
	if !ok {
		t.Fatal("MS(2,2) has no move T2")
	}
	if err := g.State.ApplyGenerator(t2); err != nil {
		t.Fatal(err)
	}
	if g.State.Solved() {
		t.Fatal("T2 should unsolve the identity")
	}
	if err := g.State.ApplyGenerator(t2); err != nil {
		t.Fatal(err)
	}
	if !g.State.Solved() {
		t.Fatal("T2 twice should restore")
	}
	if _, ok := nw.Set().ByName("nope"); ok {
		t.Error("unknown move accepted")
	}
}

// TestCloneIndependence pins the copy TestStateGraphEqualsCayleyGraph
// takes of each state: one rebuilt from ToPerm shares nothing with
// the original.
func TestCloneIndependence(t *testing.T) {
	s := solvedState(t, 2, 2)
	c, err := FromPerm(s.ToPerm(), s.L(), s.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SwapBoxes(2); err != nil {
		t.Fatal(err)
	}
	if !s.Solved() {
		t.Fatal("copy aliased original")
	}
}

func TestStateGraphEqualsCayleyGraph(t *testing.T) {
	// Exhaustive equivalence on a small instance: BFS over operational
	// game states reaches exactly the k! permutations, with the same
	// adjacency as the Cayley graph.
	nw := core.MustNew(core.MS, 2, 2)
	visited := map[string]bool{}
	start := solvedState(t, 2, 2)
	queue := []*State{start}
	visited[start.ToPerm().String()] = true
	edges := 0
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for i := 0; i < nw.Set().Len(); i++ {
			next, err := FromPerm(s.ToPerm(), s.L(), s.N())
			if err != nil {
				t.Fatal(err)
			}
			if err := next.ApplyGenerator(nw.Set().At(i)); err != nil {
				t.Fatal(err)
			}
			edges++
			key := next.ToPerm().String()
			if !visited[key] {
				visited[key] = true
				queue = append(queue, next)
			}
		}
	}
	if int64(len(visited)) != nw.N() {
		t.Fatalf("game reaches %d states, Cayley graph has %d nodes", len(visited), nw.N())
	}
	if int64(edges) != nw.N()*int64(nw.Degree()) {
		t.Fatalf("game explored %d arcs, want %d", edges, nw.N()*int64(nw.Degree()))
	}
}

func TestApplyGeneratorRejectsGeneralTransposition(t *testing.T) {
	s := solvedState(t, 2, 2)
	// T₃,₅ is a transposition-network generator, not a game move.
	g := gens.TranspositionIJ(5, 3, 5)
	if err := s.ApplyGenerator(g); err == nil {
		t.Error("general transposition accepted as a game move")
	}
}
