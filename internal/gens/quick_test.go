package gens

import (
	"math/rand"
	"testing"
	"testing/quick"

	"supercayley/internal/perm"
)

// quickCfg gives deterministic generation for property tests.
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(seed))}
}

func TestQuickGeneratorsAreBijections(t *testing.T) {
	// Property: every generator kind, with any valid parameters, is a
	// valid permutation of positions, and applying it to a valid
	// permutation yields a valid permutation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 3 + r.Intn(10)
		var g Generator
		switch r.Intn(5) {
		case 0:
			g = Transposition(k, 2+r.Intn(k-1))
		case 1:
			i := 1 + r.Intn(k-1)
			g = TranspositionIJ(k, i, i+1+r.Intn(k-i))
		case 2:
			g = Insertion(k, 2+r.Intn(k-1))
		case 3:
			g = Selection(k, 2+r.Intn(k-1))
		default:
			n := 1 + r.Intn(3)
			l := 2 + r.Intn(3)
			k = n*l + 1
			if r.Intn(2) == 0 {
				g = Swap(n, l, 2+r.Intn(l-1))
			} else {
				g = Rotation(n, l, 1+r.Intn(l-1))
			}
		}
		if !g.Pi().Valid() {
			return false
		}
		p := perm.Random(r, k)
		q := g.Apply(p)
		return q.Valid() && !q.Equal(p) // generators are non-identity
	}
	if err := quick.Check(f, quickCfg(1)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverseRoundTrip(t *testing.T) {
	// Property: g⁻¹(g(p)) = p for random generators and permutations.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		l := 2 + r.Intn(4)
		k := n*l + 1
		gens := []Generator{
			Transposition(k, 2+r.Intn(n)),
			Insertion(k, 2+r.Intn(k-1)),
			Selection(k, 2+r.Intn(k-1)),
			Swap(n, l, 2+r.Intn(l-1)),
			Rotation(n, l, 1+r.Intn(l-1)),
		}
		p := perm.Random(r, k)
		for _, g := range gens {
			if !g.Inverse().Apply(g.Apply(p)).Equal(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(2)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRotationAdditive(t *testing.T) {
	// Property: Rⁱ∘Rʲ = R^(i+j) for all i, j.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		l := 2 + r.Intn(4)
		i, j := r.Intn(2*l), r.Intn(2*l)
		p := perm.Random(r, n*l+1)
		lhs := Rotation(n, l, j).Apply(Rotation(n, l, i).Apply(p))
		rhs := Rotation(n, l, i+j).Apply(p)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, quickCfg(3)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSwapCommutesWithDisjointSwap(t *testing.T) {
	// Property: Sᵢ and Sⱼ with i ≠ j need not commute (they share the
	// front box), but Sᵢ∘Sᵢ = id always.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		l := 2 + r.Intn(4)
		i := 2 + r.Intn(l-1)
		p := perm.Random(r, n*l+1)
		s := Swap(n, l, i)
		return s.Apply(s.Apply(p)).Equal(p)
	}
	if err := quick.Check(f, quickCfg(4)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReplayIntoMatchesFoldedApply(t *testing.T) {
	// Property: ReplayInto over a random index route equals folding
	// Apply over the decoded generators, with the scratch buffers
	// reused (and poisoned) across iterations.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 3 + r.Intn(8)
		gs := make([]Generator, 0, k-1)
		for i := 2; i <= k; i++ {
			gs = append(gs, Transposition(k, i))
		}
		set, err := NewSet(gs...)
		if err != nil {
			t.Fatal(err)
		}
		route := make([]GenIndex, r.Intn(12))
		for i := range route {
			route[i] = GenIndex(r.Intn(set.Len()))
		}
		u := perm.Random(r, k)
		want := u.Clone()
		for _, g := range set.Decode(route) {
			want = g.Apply(want)
		}
		dst, tmp := make(perm.Perm, k), make(perm.Perm, k)
		for i := range dst {
			dst[i] = uint8(1 + (i+1)%k)
			tmp[i] = uint8(1 + (i+2)%k)
		}
		set.ReplayInto(dst, tmp, u, route)
		return dst.Equal(want)
	}
	if err := quick.Check(f, quickCfg(10)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickApplyIntoMatchesNaiveApply(t *testing.T) {
	// Property: ApplyInto equals both Apply and the naive definition
	// q[i] = p[pi[i]-1] from the generator's position permutation, for
	// every generator kind at sizes up to perm.MaxK.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 3 + r.Intn(perm.MaxK-2)
		var g Generator
		switch r.Intn(4) {
		case 0:
			g = Transposition(k, 2+r.Intn(k-1))
		case 1:
			i := 1 + r.Intn(k-1)
			g = TranspositionIJ(k, i, i+1+r.Intn(k-i))
		case 2:
			g = Insertion(k, 2+r.Intn(k-1))
		default:
			g = Selection(k, 2+r.Intn(k-1))
		}
		p := perm.Random(r, k)
		dst := make(perm.Perm, k)
		g.ApplyInto(dst, p)
		pi := g.Pi()
		naive := make(perm.Perm, k)
		for i := range naive {
			naive[i] = p[pi[i]-1]
		}
		return dst.Equal(naive) && dst.Equal(g.Apply(p))
	}
	if err := quick.Check(f, quickCfg(9)); err != nil {
		t.Fatal(err)
	}
}
