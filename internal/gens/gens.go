// Package gens defines the generators from which star graphs and the
// ten super Cayley graph families of Yeh–Varvarigos–Lee (PaCT-99) are
// built.
//
// A generator is a fixed rearrangement of positions: traversing the
// Cayley-graph link labelled g from node U leads to V = U∘g, i.e.
// V[i] = U[g[i]-1].  The paper's generator kinds are
//
//   - transposition Tᵢ       — swap positions 1 and i (nucleus, star graph)
//   - transposition Tᵢⱼ      — swap positions i and j (transposition network)
//   - swap Sₙ,ᵢ              — exchange super-symbol 1 with super-symbol i (super)
//   - insertion Iᵢ           — cyclic left shift of the leftmost i symbols (nucleus)
//   - selection Iᵢ⁻¹         — cyclic right shift of the leftmost i symbols (nucleus)
//   - rotation Rⁱₙ           — cyclic right shift of positions 2..k by n·i (super)
//
// Nucleus generators permute only the leftmost n+1 symbols (the
// outside ball and the leftmost box of the ball-arrangement game);
// super generators permute whole super-symbols (boxes).
package gens

import (
	"fmt"

	"supercayley/internal/perm"
)

// Kind identifies the family a generator belongs to.
type Kind int

const (
	KindTransposition Kind = iota // Tᵢ or Tᵢⱼ
	KindSwap                      // Sₙ,ᵢ
	KindInsertion                 // Iᵢ
	KindSelection                 // Iᵢ⁻¹
	KindRotation                  // Rⁱₙ
)

// String names the generator kind.
func (k Kind) String() string {
	switch k {
	case KindTransposition:
		return "transposition"
	case KindSwap:
		return "swap"
	case KindInsertion:
		return "insertion"
	case KindSelection:
		return "selection"
	case KindRotation:
		return "rotation"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Class separates nucleus generators (acting on the leftmost n+1
// symbols) from super generators (permuting whole super-symbols).
type Class int

const (
	Nucleus Class = iota
	Super
)

// String names the generator class.
func (c Class) String() string {
	if c == Nucleus {
		return "nucleus"
	}
	return "super"
}

// Generator is an immutable labelled position permutation.
type Generator struct {
	name  string
	kind  Kind
	class Class
	// pi is the position permutation: applying the generator to U
	// yields V with V[i] = U[pi[i]-1].
	pi perm.Perm
	// dim is the defining dimension (i for Tᵢ/Iᵢ/Iᵢ⁻¹/Sₙ,ᵢ, i for Rⁱ);
	// dim2 is j for Tᵢⱼ, else 0.
	dim, dim2 int
}

// Name returns the display label, e.g. "T3", "S2", "I4", "I4'", "R2".
func (g Generator) Name() string { return g.name }

// Kind returns the generator kind.
func (g Generator) Kind() Kind { return g.kind }

// Class returns Nucleus or Super.
func (g Generator) Class() Class { return g.class }

// Dim returns the defining dimension.
func (g Generator) Dim() int { return g.dim }

// Dim2 returns j for a Tᵢⱼ generator and 0 otherwise.
func (g Generator) Dim2() int { return g.dim2 }

// K returns the number of symbols the generator acts on.
//
//scg:noalloc
func (g Generator) K() int { return len(g.pi) }

// Pi returns a copy of the underlying position permutation.
func (g Generator) Pi() perm.Perm { return g.pi.Clone() }

// Apply returns p∘g, the neighbor of p along this generator's link.
func (g Generator) Apply(p perm.Perm) perm.Perm {
	if len(p) != len(g.pi) {
		panic(fmt.Sprintf("gens: %s acts on %d symbols, got %d", g.name, len(g.pi), len(p)))
	}
	return p.Compose(g.pi)
}

// ApplyInto writes p∘g into dst without allocating; dst must not alias p.
//
//scg:noalloc
func (g Generator) ApplyInto(dst, p perm.Perm) {
	p.ComposeInto(dst, g.pi)
}

// Equal reports whether two generators have the same action (their
// labels may differ: e.g. R² on l=4 equals R⁻² by action).
func (g Generator) Equal(h Generator) bool { return g.pi.Equal(h.pi) }

// IsIdentity reports whether the generator fixes every position.
func (g Generator) IsIdentity() bool { return g.pi.IsIdentity() }

// IsInvolution reports whether g is its own inverse.
func (g Generator) IsInvolution() bool { return g.pi.Compose(g.pi).IsIdentity() }

// Inverse returns the inverse generator, with a best-effort natural
// label (selection for insertion, R^(l-i) naming handled by callers).
func (g Generator) Inverse() Generator {
	inv := g
	inv.pi = g.pi.Inverse()
	switch g.kind {
	case KindInsertion:
		inv.kind = KindSelection
		inv.name = fmt.Sprintf("I%d'", g.dim)
	case KindSelection:
		inv.kind = KindInsertion
		inv.name = fmt.Sprintf("I%d", g.dim)
	case KindRotation:
		inv.name = fmt.Sprintf("R-%d", g.dim)
		inv.dim = -g.dim
	case KindTransposition, KindSwap:
		// Transpositions and swaps are involutions; keep the label.
		if !g.IsInvolution() {
			inv.name = g.name + "'"
		}
	default:
		panic(fmt.Sprintf("gens: unknown kind %d", int(g.kind)))
	}
	return inv
}

// Transposition returns Tᵢ on k symbols: swap positions 1 and i,
// 2 ≤ i ≤ k.  Tᵢ generators are the star-graph generator set and the
// nucleus generators of MS, RS and complete-RS networks (with i ≤ n+1).
func Transposition(k, i int) Generator {
	if i < 2 || i > k {
		panic(fmt.Sprintf("gens: T%d needs 2 ≤ i ≤ k=%d", i, k))
	}
	pi := perm.Identity(k)
	pi[0], pi[i-1] = pi[i-1], pi[0]
	return Generator{name: fmt.Sprintf("T%d", i), kind: KindTransposition, class: Nucleus, pi: pi, dim: i}
}

// TranspositionIJ returns Tᵢⱼ on k symbols: swap positions i and j,
// 1 ≤ i < j ≤ k.  The set of all Tᵢⱼ generates the transposition
// network k-TN.
func TranspositionIJ(k, i, j int) Generator {
	if i < 1 || j <= i || j > k {
		panic(fmt.Sprintf("gens: T%d,%d needs 1 ≤ i < j ≤ k=%d", i, j, k))
	}
	pi := perm.Identity(k)
	pi[i-1], pi[j-1] = pi[j-1], pi[i-1]
	return Generator{name: fmt.Sprintf("T%d,%d", i, j), kind: KindTransposition, class: Nucleus, pi: pi, dim: i, dim2: j}
}

// AdjacentTransposition returns the bubble-sort generator swapping
// positions i and i+1, 1 ≤ i ≤ k−1.
func AdjacentTransposition(k, i int) Generator {
	return TranspositionIJ(k, i, i+1)
}

// Swap returns Sₙ,ᵢ on k = nl+1 symbols: exchange super-symbol 1
// (positions 2..n+1) with super-symbol i (positions (i−1)n+2..in+1),
// 2 ≤ i ≤ l.  Swap generators are the super generators of macro-star
// and macro-IS networks.
func Swap(n, l, i int) Generator {
	if n < 1 || l < 2 || i < 2 || i > l {
		panic(fmt.Sprintf("gens: S%d needs n≥1, 2 ≤ i ≤ l (n=%d l=%d i=%d)", i, n, l, i))
	}
	k := n*l + 1
	pi := perm.Identity(k)
	for m := 0; m < n; m++ {
		a := 1 + m           // 0-indexed position in super-symbol 1
		b := (i-1)*n + 1 + m // 0-indexed position in super-symbol i
		pi[a], pi[b] = pi[b], pi[a]
	}
	return Generator{name: fmt.Sprintf("S%d", i), kind: KindSwap, class: Super, pi: pi, dim: i}
}

// Insertion returns Iᵢ on k symbols: cyclic left shift of the leftmost
// i symbols (insert the outside ball at the (i−1)th slot of the
// leftmost box), 2 ≤ i ≤ k.  Iᵢ(u₁..u_k) = u₂..uᵢ u₁ uᵢ₊₁..u_k.
func Insertion(k, i int) Generator {
	if i < 2 || i > k {
		panic(fmt.Sprintf("gens: I%d needs 2 ≤ i ≤ k=%d", i, k))
	}
	pi := perm.Identity(k)
	for m := 0; m < i-1; m++ {
		pi[m] = uint8(m + 2)
	}
	pi[i-1] = 1
	return Generator{name: fmt.Sprintf("I%d", i), kind: KindInsertion, class: Nucleus, pi: pi, dim: i}
}

// Selection returns Iᵢ⁻¹ on k symbols: cyclic right shift of the
// leftmost i symbols (select the ball at slot i−1 of the leftmost box
// as the new outside ball), 2 ≤ i ≤ k.
// Iᵢ⁻¹(u₁..u_k) = uᵢ u₁..uᵢ₋₁ uᵢ₊₁..u_k.
func Selection(k, i int) Generator {
	if i < 2 || i > k {
		panic(fmt.Sprintf("gens: I%d' needs 2 ≤ i ≤ k=%d", i, k))
	}
	pi := perm.Identity(k)
	pi[0] = uint8(i)
	for m := 1; m < i; m++ {
		pi[m] = uint8(m)
	}
	return Generator{name: fmt.Sprintf("I%d'", i), kind: KindSelection, class: Nucleus, pi: pi, dim: i}
}

// Rotation returns Rⁱₙ on k = nl+1 symbols: cyclic right shift of the
// rightmost k−1 symbols (all boxes) by n·i positions; i is taken
// modulo l, so Rotation(n,l,i) for i in 1..l−1 enumerates the
// non-trivial rotations of the complete-rotation families, and
// Rotation(n,l,l−i) is the inverse of Rotation(n,l,i).
func Rotation(n, l, i int) Generator {
	if n < 1 || l < 2 {
		panic(fmt.Sprintf("gens: R%d needs n≥1, l≥2 (n=%d l=%d)", i, n, l))
	}
	im := ((i % l) + l) % l
	k := n*l + 1
	pi := perm.Identity(k)
	shift := n * im
	body := k - 1 // boxes occupy positions 2..k
	for m := 0; m < body; m++ {
		// Position 2+((m+shift) mod body) receives the symbol from
		// position 2+m; equivalently pi maps destination→source.
		dst := (m + shift) % body
		pi[1+dst] = uint8(2 + m)
	}
	name := fmt.Sprintf("R%d", i)
	if i == 1 {
		name = "R"
	}
	if i < 0 {
		name = fmt.Sprintf("R-%d", -i)
	}
	return Generator{name: name, kind: KindRotation, class: Super, pi: pi, dim: i}
}

// GenIndex is a compact reference to a generator by its position in a
// Set.  Routes on the bulk-routing hot path are emitted as []GenIndex
// instead of []Generator: one byte per hop, decodable back to the
// labelled generators with Set.Decode, and directly usable as the sim
// package's port numbers (port p = generator index p).  A uint8 is
// enough: every family's degree is at most 2n+l−1 ≤ 2·MaxK < 256.
type GenIndex uint8

// Set is an ordered generator set defining a Cayley graph.
type Set struct {
	gens []Generator
}

// NewSet builds a Set, rejecting identity generators, duplicates (by
// action), and mixed symbol counts.
func NewSet(gs ...Generator) (*Set, error) {
	return newSet(false, gs)
}

// NewSetAllowParallel builds a Set permitting generators with equal
// actions (parallel links), still rejecting identities, duplicate
// names, and mixed symbol counts.  The paper's insertion-selection
// networks are multigraphs in this sense: I₂ and I₂⁻¹ are distinct
// links of the same two endpoints.
func NewSetAllowParallel(gs ...Generator) (*Set, error) {
	return newSet(true, gs)
}

func newSet(allowParallel bool, gs []Generator) (*Set, error) {
	if len(gs) == 0 {
		return nil, fmt.Errorf("gens: empty generator set")
	}
	k := gs[0].K()
	for i, g := range gs {
		if g.K() != k {
			return nil, fmt.Errorf("gens: generator %s acts on %d symbols, want %d", g.Name(), g.K(), k)
		}
		if g.IsIdentity() {
			return nil, fmt.Errorf("gens: generator %s is the identity", g.Name())
		}
		for _, h := range gs[:i] {
			if h.Name() == g.Name() {
				return nil, fmt.Errorf("gens: duplicate generator name %s", g.Name())
			}
			if !allowParallel && g.Equal(h) {
				return nil, fmt.Errorf("gens: generators %s and %s have the same action", h.Name(), g.Name())
			}
		}
	}
	s := &Set{gens: make([]Generator, len(gs))}
	copy(s.gens, gs)
	return s, nil
}

// K returns the number of symbols the set acts on.
//
//scg:noalloc
func (s *Set) K() int { return s.gens[0].K() }

// Len returns the number of generators (= out-degree of the Cayley graph).
func (s *Set) Len() int { return len(s.gens) }

// At returns the i-th generator.
func (s *Set) At(i int) Generator { return s.gens[i] }

// ByName returns the generator with the given label.
func (s *Set) ByName(name string) (Generator, bool) {
	for _, g := range s.gens {
		if g.name == name {
			return g, true
		}
	}
	return Generator{}, false
}

// IndexOfAction returns the index of the generator whose action equals
// g's, or -1.
func (s *Set) IndexOfAction(g Generator) int {
	for i, h := range s.gens {
		if h.Equal(g) {
			return i
		}
	}
	return -1
}

// Index returns the index of g in the set, matching by name first (so
// parallel links keep their identity) and falling back to action; -1
// if absent.
func (s *Set) Index(g Generator) int {
	for i, h := range s.gens {
		if h.name == g.name {
			return i
		}
	}
	return s.IndexOfAction(g)
}

// Decode materializes a compact index route back into the labelled
// generator sequence (the inverse of Set.Index over a route).
func (s *Set) Decode(route []GenIndex) []Generator {
	out := make([]Generator, len(route))
	for i, idx := range route {
		out[i] = s.gens[idx]
	}
	return out
}

// ReplayInto replays an index route from node u and writes the final
// node into dst without allocating: dst = u∘g₁∘g₂∘…∘gₘ.  tmp is
// ping-pong scratch; dst, tmp and u must all have length K() and must
// not alias each other.  It is the bulk engine's decoder-free way to
// verify where a compact route leads.
//
//scg:noalloc
func (s *Set) ReplayInto(dst, tmp, u perm.Perm, route []GenIndex) {
	k := s.K()
	if len(dst) != k || len(tmp) != k || len(u) != k {
		panic(fmt.Sprintf("gens: ReplayInto wants %d-symbol buffers (dst=%d tmp=%d u=%d)",
			k, len(dst), len(tmp), len(u)))
	}
	a, b := dst, tmp
	copy(a, u)
	for _, idx := range route {
		a.ComposeInto(b, s.gens[idx].pi)
		a, b = b, a
	}
	if &a[0] != &dst[0] {
		copy(dst, a)
	}
}

// Closed reports whether the set is closed under inversion, i.e. the
// Cayley graph can be viewed as undirected (each directed link has an
// oppositely-directed twin between the same nodes).
func (s *Set) Closed() bool {
	for _, g := range s.gens {
		if s.IndexOfAction(g.Inverse()) < 0 {
			return false
		}
	}
	return true
}

// Nucleus returns the nucleus generators in order.
func (s *Set) Nucleus() []Generator { return s.byClass(Nucleus) }

// Super returns the super generators in order.
func (s *Set) Super() []Generator { return s.byClass(Super) }

func (s *Set) byClass(c Class) []Generator {
	var out []Generator
	for _, g := range s.gens {
		if g.class == c {
			out = append(out, g)
		}
	}
	return out
}

// Names returns the generator labels in order.
func (s *Set) Names() []string {
	out := make([]string, len(s.gens))
	for i, g := range s.gens {
		out[i] = g.name
	}
	return out
}
