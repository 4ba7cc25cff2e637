package topologies

import (
	"fmt"
	"strings"

	"supercayley/internal/perm"
)

// Mesh is a multi-dimensional mesh (grid without wraparound) with
// per-dimension sizes dims[0] × dims[1] × … .  Node IDs are mixed
// radix: id = c₀ + c₁·dims[0] + c₂·dims[0]dims[1] + … .
type Mesh struct {
	dims    []int
	strides []int
	order   int
	buf     []int
}

// NewMesh builds a mesh with the given dimension sizes (each ≥ 1).
func NewMesh(dims ...int) (*Mesh, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topologies: mesh needs at least one dimension")
	}
	order := 1
	strides := make([]int, len(dims))
	for i, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("topologies: mesh dimension %d has size %d", i, d)
		}
		strides[i] = order
		if order > (1<<31)/d {
			return nil, fmt.Errorf("topologies: mesh too large")
		}
		order *= d
	}
	return &Mesh{
		dims:    append([]int(nil), dims...),
		strides: strides,
		order:   order,
		buf:     make([]int, 0, 2*len(dims)),
	}, nil
}

// NewFactorialMesh returns the 2×3×4×…×k mesh of Corollary 7, whose
// k!/1! nodes biject with the permutations of 1..k via the factorial
// number system (see MeshToPerm).
func NewFactorialMesh(k int) (*Mesh, error) {
	if k < 2 || k > 12 {
		return nil, fmt.Errorf("topologies: factorial mesh k=%d out of range [2,12]", k)
	}
	dims := make([]int, 0, k-1)
	for d := 2; d <= k; d++ {
		dims = append(dims, d)
	}
	return NewMesh(dims...)
}

// Name returns e.g. "mesh(2x3x4)".
func (m *Mesh) Name() string {
	parts := make([]string, len(m.dims))
	for i, d := range m.dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "mesh(" + strings.Join(parts, "x") + ")"
}

// Order returns the number of nodes.
func (m *Mesh) Order() int { return m.order }

// Coords decodes a node ID into coordinates.
func (m *Mesh) Coords(v int) []int {
	c := make([]int, len(m.dims))
	for i, d := range m.dims {
		c[i] = v % d
		v /= d
	}
	return c
}

// ID encodes coordinates into a node ID.
func (m *Mesh) ID(coords []int) int {
	v := 0
	for i, c := range coords {
		if c < 0 || c >= m.dims[i] {
			panic(fmt.Sprintf("topologies: coordinate %d=%d out of range [0,%d)", i, c, m.dims[i]))
		}
		v += c * m.strides[i]
	}
	return v
}

// Neighbors returns the mesh neighbors of v (±1 per dimension,
// without wraparound).  The slice is reused across calls.
func (m *Mesh) Neighbors(v int) []int {
	m.buf = m.buf[:0]
	rest := v
	for i, d := range m.dims {
		c := rest % d
		rest /= d
		if c > 0 {
			m.buf = append(m.buf, v-m.strides[i])
		}
		if c < d-1 {
			m.buf = append(m.buf, v+m.strides[i])
		}
	}
	return m.buf
}

// MeshToPerm maps a factorial-mesh node to a permutation of 1..k via
// the factorial number system: the mesh coordinates (c₀..c₍k₋₂₎) with
// cᵢ ∈ {0..i+1} are read as the Lehmer digits of the permutation
// (most significant digit = c₍k₋₂₎).  This is the load-1 expansion-1
// bijection behind Corollary 7.
func (m *Mesh) MeshToPerm(v int) perm.Perm {
	k := len(m.dims) + 1
	coords := m.Coords(v)
	var rank int64
	for i := k - 2; i >= 0; i-- {
		// coords[i] ∈ [0, i+2): digit with weight (i+1)!.
		rank += int64(coords[i]) * perm.Factorial(i+1)
	}
	return perm.Unrank(k, rank)
}
