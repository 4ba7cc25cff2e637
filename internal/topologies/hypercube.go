// Package topologies implements the guest networks the paper embeds
// into super Cayley graphs (Section 5): hypercubes, meshes (including
// the 2×3×…×k factorial mesh), complete binary trees, bubble-sort
// graphs and transposition networks.
package topologies

import (
	"fmt"
)

// Hypercube is the d-dimensional binary hypercube Q_d: 2^d nodes,
// neighbors differ in exactly one bit.
type Hypercube struct {
	d   int
	buf []int
}

// NewHypercube returns Q_d, 0 ≤ d ≤ 30.
func NewHypercube(d int) (*Hypercube, error) {
	if d < 0 || d > 30 {
		return nil, fmt.Errorf("topologies: hypercube dimension %d out of range [0,30]", d)
	}
	return &Hypercube{d: d, buf: make([]int, d)}, nil
}

// Name returns e.g. "Q5".
func (h *Hypercube) Name() string { return fmt.Sprintf("Q%d", h.d) }

// D returns the dimension.
func (h *Hypercube) D() int { return h.d }

// Order returns 2^d.
func (h *Hypercube) Order() int { return 1 << h.d }

// Neighbors returns the d bit-flip neighbors of v.  The slice is
// reused across calls.
func (h *Hypercube) Neighbors(v int) []int {
	for b := 0; b < h.d; b++ {
		h.buf[b] = v ^ (1 << b)
	}
	return h.buf
}
