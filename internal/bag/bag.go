// Package bag implements the ball-arrangement game (BAG) of Section 2
// of the paper: l boxes each holding n distinct balls, plus one
// outside ball (k = nl+1 balls in total).  At each step the player
// either rearranges the leftmost n+1 balls (the outside ball and the
// leftmost box — a nucleus move) or rearranges the boxes (a super
// move).  The goal is the sorted configuration: ball j in its home
// slot, color-i balls filling the i-th box.
//
// The game state graph is exactly the super Cayley graph whose
// generators encode the allowed moves; this package represents states
// operationally (boxes and balls) and proves the correspondence
// against the permutation algebra, which is the paper's central
// modelling claim.
package bag

import (
	"fmt"
	"strings"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// State is an operational game configuration: the outside ball plus l
// boxes of n balls each.  Balls are numbered 1..nl+1; ball 1's home is
// outside, ball j's home (j ≥ 2) is slot (j−2) mod n of box
// ⌊(j−2)/n⌋+1.  Ball j has color ⌈(j−1)/n⌉ (color 0 for the outside
// ball).
type State struct {
	Outside int
	Boxes   [][]int
}

// FromPerm decodes a permutation into a state under the layout (l,n):
// position 1 is the outside ball; positions (b−1)n+2..bn+1 are box b.
func FromPerm(p perm.Perm, l, n int) (*State, error) {
	if p.K() != n*l+1 {
		return nil, fmt.Errorf("bag: permutation on %d symbols does not fit l=%d n=%d", p.K(), l, n)
	}
	if !p.Valid() {
		return nil, fmt.Errorf("bag: invalid permutation")
	}
	s := &State{Outside: int(p[0]), Boxes: make([][]int, l)}
	for b := 0; b < l; b++ {
		s.Boxes[b] = make([]int, n)
		for i := 0; i < n; i++ {
			s.Boxes[b][i] = int(p[b*n+1+i])
		}
	}
	return s, nil
}

// ToPerm encodes the state as a permutation.
func (s *State) ToPerm() perm.Perm {
	l, n := s.L(), s.N()
	p := make(perm.Perm, n*l+1)
	p[0] = uint8(s.Outside)
	for b := 0; b < l; b++ {
		for i := 0; i < n; i++ {
			p[b*n+1+i] = uint8(s.Boxes[b][i])
		}
	}
	return p
}

// L returns the number of boxes.
func (s *State) L() int { return len(s.Boxes) }

// N returns the number of balls per box.
func (s *State) N() int {
	if len(s.Boxes) == 0 {
		return 0
	}
	return len(s.Boxes[0])
}

// Solved reports whether every box b holds exactly the color-b balls
// in home order and the outside ball is ball 1 — i.e. the state is the
// identity permutation.
func (s *State) Solved() bool { return s.ToPerm().IsIdentity() }

// String renders like "[1] |2 3|4 5|" (outside ball, then boxes).
func (s *State) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d] ", s.Outside)
	for _, box := range s.Boxes {
		b.WriteByte('|')
		for i, ball := range box {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", ball)
		}
	}
	b.WriteByte('|')
	return b.String()
}

// --- Operational moves ---------------------------------------------
//
// Each move manipulates balls and boxes directly, mirroring the
// paper's prose; tests verify each equals the corresponding generator
// acting on the permutation encoding.

// TransposeBall exchanges the outside ball with the ball at slot
// m−1 of the leftmost box (the star-graph move T_m restricted to the
// nucleus, 2 ≤ m ≤ n+1).
func (s *State) TransposeBall(m int) error {
	if m < 2 || m > s.N()+1 {
		return fmt.Errorf("bag: transpose slot %d out of range [2,%d]", m, s.N()+1)
	}
	s.Outside, s.Boxes[0][m-2] = s.Boxes[0][m-2], s.Outside
	return nil
}

// InsertBall inserts the outside ball at slot m−1 of the leftmost
// box; the ball at slot 1 pops out... more precisely the leftmost m−1
// balls of the game (outside + first m−2 slots... the paper: the
// leftmost m symbols cyclically shift left: slot-1 ball becomes the
// new outside ball after re-reading.  Operationally: the outside ball
// goes to slot m−1 and the balls in slots 1..m−1 shift left by one,
// with the slot-1 ball becoming the new outside ball.
func (s *State) InsertBall(m int) error {
	if m < 2 || m > s.N()+1 {
		return fmt.Errorf("bag: insert slot %d out of range [2,%d]", m, s.N()+1)
	}
	box := s.Boxes[0]
	newOutside := box[0]
	copy(box[:m-2], box[1:m-1])
	box[m-2] = s.Outside
	s.Outside = newOutside
	return nil
}

// SelectBall removes the ball at slot m−1 of the leftmost box as the
// new outside ball, shifting slots 1..m−2 right and placing the old
// outside ball into slot 1 (the inverse of InsertBall).
func (s *State) SelectBall(m int) error {
	if m < 2 || m > s.N()+1 {
		return fmt.Errorf("bag: select slot %d out of range [2,%d]", m, s.N()+1)
	}
	box := s.Boxes[0]
	selected := box[m-2]
	copy(box[1:m-1], box[:m-2])
	box[0] = s.Outside
	s.Outside = selected
	return nil
}

// SwapBoxes exchanges the leftmost box with box i (2 ≤ i ≤ l).
func (s *State) SwapBoxes(i int) error {
	if i < 2 || i > s.L() {
		return fmt.Errorf("bag: swap box %d out of range [2,%d]", i, s.L())
	}
	s.Boxes[0], s.Boxes[i-1] = s.Boxes[i-1], s.Boxes[0]
	return nil
}

// RotateBoxes cyclically shifts all boxes right by t positions
// (negative t shifts left).
func (s *State) RotateBoxes(t int) {
	l := s.L()
	t = ((t % l) + l) % l
	if t == 0 {
		return
	}
	rotated := make([][]int, l)
	for b := 0; b < l; b++ {
		rotated[(b+t)%l] = s.Boxes[b]
	}
	s.Boxes = rotated
}

// ApplyGenerator performs the operational move corresponding to a
// generator.  It returns an error for generator kinds that are not
// game moves or are out of range for this layout.
func (s *State) ApplyGenerator(g gens.Generator) error {
	switch g.Kind() {
	case gens.KindTransposition:
		if g.Dim2() != 0 {
			return fmt.Errorf("bag: general transposition %s is not a game move", g.Name())
		}
		return s.TransposeBall(g.Dim())
	case gens.KindInsertion:
		return s.InsertBall(g.Dim())
	case gens.KindSelection:
		return s.SelectBall(g.Dim())
	case gens.KindSwap:
		return s.SwapBoxes(g.Dim())
	case gens.KindRotation:
		s.RotateBoxes(g.Dim())
		return nil
	}
	return fmt.Errorf("bag: unsupported generator kind %v", g.Kind())
}

// Game binds a scrambled state to a super Cayley network whose
// generators are the legal moves.
type Game struct {
	Net   *core.Network
	State *State
}

// NewGame starts a game on net from the given permutation state.
func NewGame(net *core.Network, start perm.Perm) (*Game, error) {
	st, err := FromPerm(start, net.L(), net.BoxSize())
	if err != nil {
		return nil, err
	}
	return &Game{Net: net, State: st}, nil
}

// Solve returns a sequence of moves solving the game from the current
// state (via the network's routing algorithm), without mutating the
// state.
func (g *Game) Solve() []gens.Generator {
	return g.Net.Route(g.State.ToPerm(), perm.Identity(g.Net.K()))
}

// SolveAndApply solves the game, applying each move, and returns the
// move sequence.  The state is guaranteed solved afterwards.
func (g *Game) SolveAndApply() ([]gens.Generator, error) {
	seq := g.Solve()
	for _, gen := range seq {
		if err := g.State.ApplyGenerator(gen); err != nil {
			return nil, err
		}
	}
	if !g.State.Solved() {
		return nil, fmt.Errorf("bag: solver finished but state %v unsolved", g.State)
	}
	return seq, nil
}
