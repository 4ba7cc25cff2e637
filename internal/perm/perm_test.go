package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	for k := 1; k <= 10; k++ {
		p := Identity(k)
		if !p.Valid() {
			t.Fatalf("Identity(%d) invalid: %v", k, p)
		}
		if !p.IsIdentity() {
			t.Fatalf("Identity(%d) not identity: %v", k, p)
		}
		if p.K() != k {
			t.Fatalf("Identity(%d).K() = %d", k, p.K())
		}
	}
}

func TestIdentityPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{0, -1, MaxK + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Identity(%d) did not panic", k)
				}
			}()
			Identity(k)
		}()
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		syms []int
		ok   bool
	}{
		{[]int{1}, true},
		{[]int{2, 1, 3}, true},
		{[]int{1, 1}, false},
		{[]int{0, 1}, false},
		{[]int{3, 1}, false},
		{[]int{}, false},
	}
	for _, c := range cases {
		_, err := New(c.syms...)
		if (err == nil) != c.ok {
			t.Errorf("New(%v): err=%v, want ok=%v", c.syms, err, c.ok)
		}
	}
}

func TestComposeIdentityLaws(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 1; k <= 9; k++ {
		id := Identity(k)
		for trial := 0; trial < 50; trial++ {
			p := Random(r, k)
			if !p.Compose(id).Equal(p) {
				t.Fatalf("p∘e != p for %v", p)
			}
			if !id.Compose(p).Equal(p) {
				t.Fatalf("e∘p != p for %v", p)
			}
		}
	}
}

func TestComposeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		k := 2 + r.Intn(8)
		p, q, s := Random(r, k), Random(r, k), Random(r, k)
		left := p.Compose(q).Compose(s)
		right := p.Compose(q.Compose(s))
		if !left.Equal(right) {
			t.Fatalf("(p∘q)∘s != p∘(q∘s) for %v %v %v", p, q, s)
		}
	}
}

func TestInverse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(9)
		p := Random(r, k)
		inv := p.Inverse()
		if !p.Compose(inv).IsIdentity() {
			t.Fatalf("p∘p⁻¹ != e for %v", p)
		}
		if !inv.Compose(p).IsIdentity() {
			t.Fatalf("p⁻¹∘p != e for %v", p)
		}
	}
}

func TestComposeInto(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		k := 1 + r.Intn(9)
		p, q := Random(r, k), Random(r, k)
		dst := make(Perm, k)
		p.ComposeInto(dst, q)
		if !dst.Equal(p.Compose(q)) {
			t.Fatalf("ComposeInto mismatch for %v %v", p, q)
		}
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	for k := 1; k <= 7; k++ {
		n := Factorial(k)
		for r := int64(0); r < n; r++ {
			p := Unrank(k, r)
			if !p.Valid() {
				t.Fatalf("Unrank(%d,%d) invalid: %v", k, r, p)
			}
			if got := p.Rank(); got != r {
				t.Fatalf("Rank(Unrank(%d,%d)) = %d", k, r, got)
			}
		}
	}
}

func TestRankLexOrder(t *testing.T) {
	// Unrank must enumerate lexicographically.
	k := 5
	prev := Unrank(k, 0)
	for r := int64(1); r < Factorial(k); r++ {
		p := Unrank(k, r)
		if !lexLess(prev, p) {
			t.Fatalf("Unrank(%d) not lex-increasing at rank %d: %v !< %v", k, r, prev, p)
		}
		prev = p
	}
}

func lexLess(a, b Perm) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestAllEnumeratesFactorialMany(t *testing.T) {
	for k := 1; k <= 7; k++ {
		count := int64(0)
		var prevRank int64 = -1
		All(k, func(p Perm) bool {
			r := p.Rank()
			if r != prevRank+1 {
				t.Fatalf("All(%d): rank %d after %d", k, r, prevRank)
			}
			prevRank = r
			count++
			return true
		})
		if count != Factorial(k) {
			t.Fatalf("All(%d) produced %d perms, want %d", k, count, Factorial(k))
		}
	}
}

func TestAllEarlyStop(t *testing.T) {
	count := 0
	All(5, func(Perm) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("All early stop: count=%d", count)
	}
}

func TestCycles(t *testing.T) {
	p := MustNew(2, 1, 4, 5, 3, 6)
	cycles := p.Cycles()
	want := [][]int{{1, 2}, {3, 4, 5}, {6}}
	if len(cycles) != len(want) {
		t.Fatalf("cycles = %v, want %v", cycles, want)
	}
	for i := range want {
		if len(cycles[i]) != len(want[i]) {
			t.Fatalf("cycle %d = %v, want %v", i, cycles[i], want[i])
		}
		for j := range want[i] {
			if cycles[i][j] != want[i][j] {
				t.Fatalf("cycle %d = %v, want %v", i, cycles[i], want[i])
			}
		}
	}
}

func TestCyclesCoverAllSymbols(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(10)
		p := Random(r, k)
		seen := make(map[int]bool)
		for _, cyc := range p.Cycles() {
			for _, s := range cyc {
				if seen[s] {
					return false
				}
				seen[s] = true
			}
		}
		return len(seen) == k
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParity checks Cycles and Compose against the sign
// homomorphism: the parity of k minus the cycle count is
// multiplicative.
func TestParity(t *testing.T) {
	parity := func(p Perm) int { return (len(p) - len(p.Cycles())) % 2 }
	if parity(Identity(5)) != 0 {
		t.Fatal("identity should be even")
	}
	if parity(MustNew(2, 1, 3)) != 1 {
		t.Fatal("single transposition should be odd")
	}
	// Parity is a homomorphism: parity(p∘q) = parity(p) xor parity(q).
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		k := 2 + r.Intn(8)
		p, q := Random(r, k), Random(r, k)
		if parity(p.Compose(q)) != parity(p)^parity(q) {
			t.Fatalf("parity not multiplicative for %v %v", p, q)
		}
	}
}

func TestStarDistanceAgainstBFS(t *testing.T) {
	// Exhaustively validate the closed-form star distance against BFS
	// on the k-star for k ≤ 6.
	for k := 2; k <= 6; k++ {
		n := Factorial(k)
		// Build adjacency: node = rank, generators T_2..T_k.
		adj := make([][]int32, n)
		var idx int64
		All(k, func(p Perm) bool {
			nbrs := make([]int32, 0, k-1)
			for i := 2; i <= k; i++ {
				q := p.Clone()
				q[0], q[i-1] = q[i-1], q[0]
				nbrs = append(nbrs, int32(q.Rank()))
			}
			adj[idx] = nbrs
			idx++
			return true
		})
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[0] = 0
		queue := []int32{0}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		var r int64
		All(k, func(p Perm) bool {
			// dist from p to identity equals dist from identity to p
			// (undirected); formula computes distance of p to e.
			if int(dist[r]) != p.StarDistance() {
				t.Fatalf("k=%d perm %v: BFS=%d formula=%d", k, p, dist[r], p.StarDistance())
			}
			r++
			return true
		})
	}
}

func TestStarDistanceDiameterBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		k := 2 + r.Intn(9)
		p := Random(r, k)
		d := p.StarDistance()
		if d < 0 || d > StarDiameter(k) {
			t.Fatalf("k=%d perm %v distance %d outside [0,%d]", k, p, d, StarDiameter(k))
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		k := 1 + r.Intn(9)
		p := Random(r, k)
		for _, s := range []string{p.String(), p.Compact()} {
			q, err := Parse(s)
			if err != nil {
				t.Fatalf("Parse(%q): %v", s, err)
			}
			if !q.Equal(p) {
				t.Fatalf("Parse(%q) = %v, want %v", s, q, p)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "(1 2", "1a2", "(x)", "0", "122"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

// TestPositionOf reads each symbol's 1-indexed position off the
// inverse permutation.
func TestPositionOf(t *testing.T) {
	p := MustNew(3, 1, 2)
	inv := p.Inverse()
	if inv[3-1] != 1 || inv[1-1] != 2 || inv[2-1] != 3 {
		t.Fatalf("positions wrong for %v: inverse %v", p, inv)
	}
}

func TestFactorial(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800}
	for n, w := range want {
		if Factorial(n) != w {
			t.Fatalf("Factorial(%d) = %d, want %d", n, Factorial(n), w)
		}
	}
	if Factorial(20) != 2432902008176640000 {
		t.Fatal("Factorial(20) wrong")
	}
}

func TestValidRejects(t *testing.T) {
	bad := []Perm{nil, {}, {0}, {2}, {1, 1}, {1, 3}}
	for _, p := range bad {
		if p.Valid() {
			t.Errorf("Valid(%v) = true", p)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	p := Identity(4)
	q := p.Clone()
	q[0], q[1] = q[1], q[0]
	if !p.IsIdentity() {
		t.Fatal("Clone aliases original")
	}
}

func TestRandomUniform(t *testing.T) {
	// Chi-squared style smoke test: each of 3! ranks should appear
	// roughly uniformly.
	r := rand.New(rand.NewSource(9))
	counts := make([]int, 6)
	const trials = 6000
	for i := 0; i < trials; i++ {
		counts[Random(r, 3).Rank()]++
	}
	for rank, c := range counts {
		if c < trials/6-200 || c > trials/6+200 {
			t.Fatalf("rank %d count %d far from uniform", rank, c)
		}
	}
}
