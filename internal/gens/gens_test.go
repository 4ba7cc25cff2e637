package gens

import (
	"math/rand"
	"testing"

	"supercayley/internal/perm"
)

func TestTranspositionAction(t *testing.T) {
	p := perm.MustNew(5, 4, 3, 2, 1)
	g := Transposition(5, 3)
	got := g.Apply(p)
	want := perm.MustNew(3, 4, 5, 2, 1)
	if !got.Equal(want) {
		t.Fatalf("T3(%v) = %v, want %v", p, got, want)
	}
	if !g.IsInvolution() {
		t.Fatal("T3 should be an involution")
	}
}

func TestTranspositionIJAction(t *testing.T) {
	p := perm.MustNew(1, 2, 3, 4, 5)
	g := TranspositionIJ(5, 2, 4)
	got := g.Apply(p)
	want := perm.MustNew(1, 4, 3, 2, 5)
	if !got.Equal(want) {
		t.Fatalf("T2,4(%v) = %v, want %v", p, got, want)
	}
}

func TestT1jEqualsTj(t *testing.T) {
	for k := 3; k <= 7; k++ {
		for j := 2; j <= k; j++ {
			if !TranspositionIJ(k, 1, j).Equal(Transposition(k, j)) {
				t.Fatalf("T1,%d != T%d on k=%d", j, j, k)
			}
		}
	}
}

func TestSwapAction(t *testing.T) {
	// MS(3,2): k=7, super-symbol 1 = positions 2-3, super-symbol 3 =
	// positions 6-7.
	p := perm.MustNew(1, 2, 3, 4, 5, 6, 7)
	g := Swap(2, 3, 3)
	got := g.Apply(p)
	want := perm.MustNew(1, 6, 7, 4, 5, 2, 3)
	if !got.Equal(want) {
		t.Fatalf("S3(%v) = %v, want %v", p, got, want)
	}
	if !g.IsInvolution() {
		t.Fatal("swap should be an involution")
	}
	if g.Class() != Super {
		t.Fatal("swap should be a super generator")
	}
}

func TestInsertionMatchesPaperFormula(t *testing.T) {
	// Iᵢ(u₁..u_k) = u₂..uᵢ u₁ uᵢ₊₁..u_k.
	u := perm.MustNew(3, 1, 4, 5, 2)
	cases := []struct {
		i    int
		want perm.Perm
	}{
		{2, perm.MustNew(1, 3, 4, 5, 2)},
		{3, perm.MustNew(1, 4, 3, 5, 2)},
		{5, perm.MustNew(1, 4, 5, 2, 3)},
	}
	for _, c := range cases {
		got := Insertion(5, c.i).Apply(u)
		if !got.Equal(c.want) {
			t.Fatalf("I%d(%v) = %v, want %v", c.i, u, got, c.want)
		}
	}
}

func TestSelectionMatchesPaperFormula(t *testing.T) {
	// Iᵢ⁻¹(u₁..u_k) = uᵢ u₁..uᵢ₋₁ uᵢ₊₁..u_k.
	u := perm.MustNew(3, 1, 4, 5, 2)
	cases := []struct {
		i    int
		want perm.Perm
	}{
		{2, perm.MustNew(1, 3, 4, 5, 2)},
		{4, perm.MustNew(5, 3, 1, 4, 2)},
		{5, perm.MustNew(2, 3, 1, 4, 5)},
	}
	for _, c := range cases {
		got := Selection(5, c.i).Apply(u)
		if !got.Equal(c.want) {
			t.Fatalf("I%d'(%v) = %v, want %v", c.i, u, got, c.want)
		}
	}
}

func TestSelectionInvertsInsertion(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 2; k <= 9; k++ {
		for i := 2; i <= k; i++ {
			ins, sel := Insertion(k, i), Selection(k, i)
			for trial := 0; trial < 20; trial++ {
				p := perm.Random(r, k)
				if !sel.Apply(ins.Apply(p)).Equal(p) {
					t.Fatalf("I%d'∘I%d != id on k=%d", i, i, k)
				}
				if !ins.Apply(sel.Apply(p)).Equal(p) {
					t.Fatalf("I%d∘I%d' != id on k=%d", i, i, k)
				}
			}
			if !ins.Inverse().Equal(sel) {
				t.Fatalf("Inverse(I%d) != I%d' on k=%d", i, i, k)
			}
		}
	}
}

func TestI2EqualsT2(t *testing.T) {
	for k := 2; k <= 8; k++ {
		if !Insertion(k, 2).Equal(Transposition(k, 2)) {
			t.Fatalf("I2 != T2 on k=%d", k)
		}
		if !Selection(k, 2).Equal(Transposition(k, 2)) {
			t.Fatalf("I2' != T2 on k=%d", k)
		}
	}
}

func TestTranspositionAsInsertionSelection(t *testing.T) {
	// Theorem 2/5 identity: T_i = I_{i-1}⁻¹ ∘ I_i (apply I_i first).
	r := rand.New(rand.NewSource(2))
	for k := 3; k <= 9; k++ {
		for i := 3; i <= k; i++ {
			ti := Transposition(k, i)
			ins, sel := Insertion(k, i), Selection(k, i-1)
			for trial := 0; trial < 10; trial++ {
				p := perm.Random(r, k)
				if !sel.Apply(ins.Apply(p)).Equal(ti.Apply(p)) {
					t.Fatalf("I%d'∘I%d != T%d on k=%d", i-1, i, i, k)
				}
			}
		}
	}
}

func TestRotationMatchesPaperFormula(t *testing.T) {
	// Rⁱ(u₁..u_k) = u₁, u_{k−in+1:k}, u_{2:k−in}: rightmost k−1
	// symbols cyclically shifted right by n·i.
	// n=2, l=3, k=7.
	u := perm.MustNew(7, 1, 2, 3, 4, 5, 6)
	r1 := Rotation(2, 3, 1).Apply(u)
	want1 := perm.MustNew(7, 5, 6, 1, 2, 3, 4)
	if !r1.Equal(want1) {
		t.Fatalf("R(%v) = %v, want %v", u, r1, want1)
	}
	r2 := Rotation(2, 3, 2).Apply(u)
	want2 := perm.MustNew(7, 3, 4, 5, 6, 1, 2)
	if !r2.Equal(want2) {
		t.Fatalf("R²(%v) = %v, want %v", u, r2, want2)
	}
}

func TestRotationGroupLaws(t *testing.T) {
	// Rⁱ = R composed i times; RⁱR⁻ⁱ = id; Rⁱ = R^(i mod l).
	for _, cfg := range []struct{ n, l int }{{1, 3}, {2, 3}, {3, 4}, {2, 5}} {
		n, l := cfg.n, cfg.l
		r := Rotation(n, l, 1)
		acc := perm.Identity(n*l + 1)
		for i := 1; i < 2*l; i++ {
			acc = r.Apply(acc)
			ri := Rotation(n, l, i)
			if !ri.Apply(perm.Identity(n*l + 1)).Equal(acc) {
				t.Fatalf("R^%d != R applied %d times (n=%d l=%d)", i, i, n, l)
			}
			inv := Rotation(n, l, -i)
			if !inv.Apply(ri.Apply(perm.Identity(n*l + 1))).IsIdentity() {
				t.Fatalf("R^%d R^-%d != id (n=%d l=%d)", i, i, n, l)
			}
		}
		if !Rotation(n, l, l).IsIdentity() {
			t.Fatalf("R^l != id (n=%d l=%d)", n, l)
		}
	}
}

func TestRotationFixesOutsideBall(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n, l := 1+r.Intn(3), 2+r.Intn(3)
		p := perm.Random(r, n*l+1)
		q := Rotation(n, l, 1+r.Intn(l-1)).Apply(p)
		if q[0] != p[0] {
			t.Fatalf("rotation moved the outside ball: %v -> %v", p, q)
		}
	}
}

func TestSwapPreservesSuperSymbolContents(t *testing.T) {
	// A swap permutes boxes wholesale: the multiset of n-long blocks
	// is preserved, block order within each box unchanged.
	r := rand.New(rand.NewSource(4))
	n, l := 3, 4
	for trial := 0; trial < 50; trial++ {
		p := perm.Random(r, n*l+1)
		i := 2 + r.Intn(l-1)
		q := Swap(n, l, i).Apply(p)
		// Box 1 of q == box i of p and vice versa; others equal.
		box := func(u perm.Perm, b int) []uint8 { return u[(b-1)*n+1 : b*n+1] }
		if !bytesEq(box(q, 1), box(p, i)) || !bytesEq(box(q, i), box(p, 1)) {
			t.Fatalf("S%d did not exchange boxes: %v -> %v", i, p, q)
		}
		for b := 2; b <= l; b++ {
			if b != i && !bytesEq(box(q, b), box(p, b)) {
				t.Fatalf("S%d disturbed box %d: %v -> %v", i, b, p, q)
			}
		}
	}
}

func bytesEq(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGeneratorInverseAction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	gs := []Generator{
		Transposition(7, 4),
		TranspositionIJ(7, 3, 6),
		Swap(2, 3, 2),
		Insertion(7, 5),
		Selection(7, 6),
		Rotation(2, 3, 1),
		Rotation(3, 2, 1),
	}
	for _, g := range gs {
		inv := g.Inverse()
		for trial := 0; trial < 20; trial++ {
			p := perm.Random(r, g.K())
			if !inv.Apply(g.Apply(p)).Equal(p) {
				t.Fatalf("%s inverse wrong", g.Name())
			}
		}
	}
}

func TestApplyIntoMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := Insertion(8, 5)
	for trial := 0; trial < 50; trial++ {
		p := perm.Random(r, 8)
		dst := make(perm.Perm, 8)
		g.ApplyInto(dst, p)
		if !dst.Equal(g.Apply(p)) {
			t.Fatalf("ApplyInto mismatch")
		}
	}
}

func TestNewSetRejections(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewSet(Transposition(5, 2), Transposition(6, 2)); err == nil {
		t.Error("mixed k accepted")
	}
	if _, err := NewSet(Transposition(5, 2), Insertion(5, 2)); err == nil {
		t.Error("duplicate action (T2 == I2) accepted")
	}
	id := Generator{name: "noop", kind: KindTransposition, class: Nucleus, pi: perm.Identity(4)}
	if _, err := NewSet(id); err == nil {
		t.Error("identity generator accepted")
	}
}

func TestSetAccessors(t *testing.T) {
	s, err := NewSet(Transposition(5, 2), Transposition(5, 3), Swap(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 5 || s.Len() != 3 {
		t.Fatalf("K=%d Len=%d", s.K(), s.Len())
	}
	if g, ok := s.ByName("T3"); !ok || g.Dim() != 3 {
		t.Fatal("ByName T3 failed")
	}
	if _, ok := s.ByName("nope"); ok {
		t.Fatal("ByName nope succeeded")
	}
	if len(s.Nucleus()) != 2 || len(s.Super()) != 1 {
		t.Fatalf("class split wrong: %v / %v", s.Nucleus(), s.Super())
	}
	names := s.Names()
	if names[0] != "T2" || names[2] != "S2" {
		t.Fatalf("Names = %v", names)
	}
	if !s.Closed() {
		t.Fatal("involution set should be closed")
	}
}

func TestSetNotClosed(t *testing.T) {
	s, err := NewSet(Insertion(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Closed() {
		t.Fatal("insertion-only set should not be closed")
	}
}

func TestPanicsOnBadDims(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("T1", func() { Transposition(5, 1) })
	mustPanic("T6/5", func() { Transposition(5, 6) })
	mustPanic("I1", func() { Insertion(5, 1) })
	mustPanic("Sel1", func() { Selection(5, 1) })
	mustPanic("Swap i>l", func() { Swap(2, 3, 4) })
	mustPanic("Tij i>=j", func() { TranspositionIJ(5, 3, 3) })
	mustPanic("apply wrong k", func() { Transposition(5, 2).Apply(perm.Identity(4)) })
}

func TestKindClassStrings(t *testing.T) {
	if KindSwap.String() != "swap" || KindRotation.String() != "rotation" {
		t.Fatal("kind strings wrong")
	}
	if Nucleus.String() != "nucleus" || Super.String() != "super" {
		t.Fatal("class strings wrong")
	}
}
