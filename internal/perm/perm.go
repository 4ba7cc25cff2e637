// Package perm implements the permutation algebra that underlies every
// network in the super Cayley graph framework.
//
// A node of a super Cayley graph, a star graph, a transposition
// network, or any other Cayley graph on the symmetric group S_k is a
// permutation of the k distinct symbols 1..k.  The package provides
// composition, inversion, Lehmer ranking (so that the k! nodes of an
// enumerated graph can be addressed by dense integer IDs), cycle
// structure, parity, and the exact star-graph distance formula of
// Akers and Krishnamurthy.
package perm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// Perm is a permutation of the symbols 1..k, stored 0-indexed:
// p[i] is the symbol at position i+1 (positions are 1-indexed in the
// paper's notation).  A Perm of length 0 is invalid everywhere.
type Perm []uint8

// MaxK is the largest number of symbols supported.  Lehmer ranks are
// returned as int64; 20! < 2^63 but uint8 symbols cap k at 255, and
// rank arithmetic caps it at 20.  Every graph in this repository is
// far smaller (exhaustive analytics stop at k = 8).
const MaxK = 20

// Identity returns the identity permutation on k symbols.
func Identity(k int) Perm {
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("perm: Identity(%d) out of range [1,%d]", k, MaxK))
	}
	p := make(Perm, k)
	for i := range p {
		p[i] = uint8(i + 1)
	}
	return p
}

// New validates symbols and builds a Perm.  Each of 1..len(symbols)
// must appear exactly once.
func New(symbols ...int) (Perm, error) {
	k := len(symbols)
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("perm: length %d out of range [1,%d]", k, MaxK)
	}
	seen := make([]bool, k+1)
	p := make(Perm, k)
	for i, s := range symbols {
		if s < 1 || s > k {
			return nil, fmt.Errorf("perm: symbol %d out of range [1,%d]", s, k)
		}
		if seen[s] {
			return nil, fmt.Errorf("perm: symbol %d repeated", s)
		}
		seen[s] = true
		p[i] = uint8(s)
	}
	return p, nil
}

// MustNew is New but panics on invalid input; for literals in tests
// and examples.
func MustNew(symbols ...int) Perm {
	p, err := New(symbols...)
	if err != nil {
		panic(err)
	}
	return p
}

// K returns the number of symbols.
func (p Perm) K() int { return len(p) }

// Valid reports whether p is a permutation of 1..len(p).
func (p Perm) Valid() bool {
	if len(p) == 0 || len(p) > MaxK {
		return false
	}
	var seen [MaxK + 1]bool
	for _, s := range p {
		if int(s) < 1 || int(s) > len(p) || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same permutation.
//
//scg:noalloc
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsIdentity reports whether p is the identity.
func (p Perm) IsIdentity() bool {
	for i, s := range p {
		if int(s) != i+1 {
			return false
		}
	}
	return true
}

// Compose returns p∘q, the permutation r with r[i] = p[q[i]-1].
// Viewing permutations as functions position→symbol, this is "apply q
// first as a position rearrangement, reading symbols from p": it is
// exactly the effect of traversing the Cayley-graph link labelled q
// from node p (right multiplication).
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic(fmt.Sprintf("perm: Compose length mismatch %d != %d", len(p), len(q)))
	}
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]-1]
	}
	return r
}

// ComposeInto is Compose writing into dst (which must have the right
// length and may not alias p or q).  It avoids allocation on hot
// routing paths.
//
//scg:noalloc
func (p Perm) ComposeInto(dst, q Perm) {
	for i := range dst {
		dst[i] = p[q[i]-1]
	}
}

// Inverse returns p⁻¹: the permutation q with q[p[i]-1] = i+1.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	p.InverseInto(q)
	return q
}

// InverseInto is Inverse writing into dst (which must have the right
// length and may not alias p).  Together with ComposeInto it lets the
// routing hot path form the pair quotient v⁻¹∘u with zero allocations.
//
//scg:noalloc
func (p Perm) InverseInto(dst Perm) {
	if len(dst) != len(p) {
		panic(fmt.Sprintf("perm: InverseInto length mismatch %d != %d", len(dst), len(p)))
	}
	for i, s := range p {
		dst[s-1] = uint8(i + 1)
	}
}

// String renders p as "(3 1 2)".
func (p Perm) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, s := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	b.WriteByte(')')
	return b.String()
}

// Compact renders p as a digit string "312" when k ≤ 9, else falls
// back to String.  Used by figure renderers.
func (p Perm) Compact() string {
	if len(p) > 9 {
		return p.String()
	}
	var b strings.Builder
	for _, s := range p {
		b.WriteByte('0' + byte(s))
	}
	return b.String()
}

// Parse reads either the String form "(3 1 2)" or the Compact form
// "312".
func Parse(s string) (Perm, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, errors.New("perm: empty input")
	}
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		fields := strings.Fields(s[1 : len(s)-1])
		syms := make([]int, len(fields))
		for i, f := range fields {
			if _, err := fmt.Sscanf(f, "%d", &syms[i]); err != nil {
				return nil, fmt.Errorf("perm: bad field %q: %v", f, err)
			}
		}
		return New(syms...)
	}
	syms := make([]int, 0, len(s))
	for _, c := range s {
		if c < '1' || c > '9' {
			return nil, fmt.Errorf("perm: bad digit %q in compact form", c)
		}
		syms = append(syms, int(c-'0'))
	}
	return New(syms...)
}

// factorials caches 0!..MaxK! so rank arithmetic on the enumeration
// hot path (Rank, Unrank, UnrankInto) never recomputes them.
var factorials = func() [MaxK + 1]int64 {
	var t [MaxK + 1]int64
	t[0] = 1
	for i := 1; i <= MaxK; i++ {
		t[i] = t[i-1] * int64(i)
	}
	return t
}()

// Factorial returns n! as int64.  Panics for n > 20.
func Factorial(n int) int64 {
	if n < 0 || n > MaxK {
		panic(fmt.Sprintf("perm: Factorial(%d) out of range", n))
	}
	return factorials[n]
}

// Rank returns the Lehmer (factorial-number-system) rank of p in
// 0..k!-1, with the identity at rank 0 and lexicographic order.
func (p Perm) Rank() int64 {
	k := len(p)
	var rank int64
	// O(k²) direct Lehmer code; k ≤ 20 so this is never the bottleneck.
	for i := 0; i < k; i++ {
		smaller := 0
		for j := i + 1; j < k; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += int64(smaller) * factorials[k-1-i]
	}
	return rank
}

// Unrank returns the permutation on k symbols with the given Lehmer
// rank (inverse of Rank).
func Unrank(k int, rank int64) Perm {
	p := make(Perm, k)
	UnrankInto(p, rank)
	return p
}

// UnrankInto writes the permutation with the given Lehmer rank into p
// (whose length determines k) without allocating.  It is safe for
// concurrent use with distinct destination buffers and is the
// workhorse of the parallel CSR materializer in internal/graph.
//
//scg:noalloc
func UnrankInto(p Perm, rank int64) {
	k := len(p)
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("perm: UnrankInto k=%d out of range", k))
	}
	if rank < 0 || rank >= factorials[k] {
		panic(fmt.Sprintf("perm: UnrankInto rank=%d out of range for k=%d", rank, k))
	}
	var avail [MaxK]uint8
	for i := 0; i < k; i++ {
		avail[i] = uint8(i + 1)
	}
	remaining := k
	for i := 0; i < k; i++ {
		f := factorials[k-1-i]
		idx := int(rank / f)
		rank %= f
		p[i] = avail[idx]
		copy(avail[idx:remaining-1], avail[idx+1:remaining])
		remaining--
	}
}

// Random returns a uniformly random permutation of 1..k drawn from r.
func Random(r *rand.Rand, k int) Perm {
	p := Identity(k)
	for i := k - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Cycles returns the cycle decomposition of p viewed as the function
// position→symbol (cycles over 1..k).  Fixed points are included as
// singleton cycles.  Cycles are reported with the smallest element
// first, ordered by that element.
func (p Perm) Cycles() [][]int {
	k := len(p)
	seen := make([]bool, k+1)
	var cycles [][]int
	for s := 1; s <= k; s++ {
		if seen[s] {
			continue
		}
		cyc := []int{s}
		seen[s] = true
		// Follow position s → symbol at position s.
		for t := int(p[s-1]); t != s; t = int(p[t-1]) {
			cyc = append(cyc, t)
			seen[t] = true
		}
		cycles = append(cycles, cyc)
	}
	return cycles
}

// StarDistance returns the exact distance from p to the identity in
// the k-star graph (generators T_2..T_k swapping position 1 with
// position i).  Akers–Krishnamurthy formula: writing p in cycle form,
// each cycle of length ≥ 2 not containing symbol/position 1 costs
// len+1 moves and the cycle containing 1 (if of length ≥ 2) costs
// len−1 moves.
func (p Perm) StarDistance() int {
	d := 0
	for _, cyc := range p.Cycles() {
		if len(cyc) < 2 {
			continue
		}
		if cyc[0] == 1 { // cycles start at their smallest element
			d += len(cyc) - 1
		} else {
			d += len(cyc) + 1
		}
	}
	return d
}

// StarDiameter returns the diameter of the k-star graph,
// ⌊3(k−1)/2⌋ (Akers, Harel, Krishnamurthy).
func StarDiameter(k int) int { return 3 * (k - 1) / 2 }

// All enumerates every permutation of 1..k in lexicographic (Lehmer)
// order, invoking fn with a permutation that is reused between calls;
// clone it if retained.  Enumeration stops early if fn returns false.
func All(k int, fn func(Perm) bool) {
	p := Identity(k)
	for {
		if !fn(p) {
			return
		}
		if !nextLex(p) {
			return
		}
	}
}

// Next advances p to its lexicographic (Lehmer-rank) successor in
// place, returning false when p was already the last permutation.
// Band builders in internal/tables use UnrankInto once at a band
// start and Next for every subsequent rank, which is amortized O(1)
// per step versus O(k log k) for repeated unranking.
//
//scg:noalloc
func Next(p Perm) bool { return nextLex(p) }

// nextLex advances p to its lexicographic successor in place,
// returning false when p was the last permutation.
//
//scg:noalloc
func nextLex(p Perm) bool {
	k := len(p)
	i := k - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := k - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for a, b := i+1, k-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
	return true
}
