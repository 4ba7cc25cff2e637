package topologies

import "fmt"

// MixedGray implements the reflected mixed-radix Gray code over a
// radix vector m₀, m₁, … (index 0 least significant): consecutive
// integers map to digit tuples differing in exactly one digit, by ±1.
//
// It is used to fold a multi-dimensional mesh into a 2-D mesh (and a
// path) without losing adjacency: a ±1 step in the folded index is a
// ±1 step in one digit of the original mesh (Corollary 6's m₁×m₂ mesh
// is realized this way on top of the 2×3×…×k factorial mesh).
type MixedGray struct {
	radices []int
	weights []int
	order   int
}

// NewMixedGray builds the code for the given radices (each ≥ 1).
func NewMixedGray(radices ...int) (*MixedGray, error) {
	if len(radices) == 0 {
		return nil, fmt.Errorf("topologies: gray code needs at least one radix")
	}
	weights := make([]int, len(radices))
	order := 1
	for i, m := range radices {
		if m < 1 {
			return nil, fmt.Errorf("topologies: radix %d is %d", i, m)
		}
		weights[i] = order
		if order > (1<<31)/m {
			return nil, fmt.Errorf("topologies: gray code too large")
		}
		order *= m
	}
	return &MixedGray{radices: append([]int(nil), radices...), weights: weights, order: order}, nil
}

// Order returns the product of the radices.
func (g *MixedGray) Order() int { return g.order }

// Digits returns the Gray digit tuple of x ∈ [0, Order): the raw
// positional digit of x at position i, reflected whenever the raw
// prefix above position i is odd.
func (g *MixedGray) Digits(x int) []int {
	if x < 0 || x >= g.order {
		panic(fmt.Sprintf("topologies: gray index %d out of range [0,%d)", x, g.order))
	}
	out := make([]int, len(g.radices))
	for i := range g.radices {
		raw := (x / g.weights[i]) % g.radices[i]
		prefix := x / (g.weights[i] * g.radices[i])
		if prefix%2 == 1 {
			out[i] = g.radices[i] - 1 - raw
		} else {
			out[i] = raw
		}
	}
	return out
}
