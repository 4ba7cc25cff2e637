// Package graph provides the generic finite-graph machinery used to
// analyze and cross-check every topology in this repository: breadth
// first search, single-source distance statistics, vertex-symmetry
// and reachability checks, and the universal Moore-style diameter
// lower bound DL(d, N) the paper argues against.
//
// Nodes are dense integers 0..Order()-1.  Cayley-graph topologies
// adapt to this interface via Lehmer ranks (see the cayley sub-file);
// guest topologies (hypercube, mesh, tree, ...) implement it directly.
package graph

import (
	"fmt"
	"math"
)

// Graph is a finite directed graph on nodes 0..Order()-1.  Undirected
// graphs report each edge in both adjacency lists.
type Graph interface {
	// Order returns the number of nodes.
	Order() int
	// Neighbors returns the out-neighbors of v.  The returned slice
	// may be reused by subsequent calls; callers must not retain it.
	Neighbors(v int) []int
}

// Named is implemented by graphs with a display name.
type Named interface {
	Name() string
}

// NameOf returns g's name or a fallback.
func NameOf(g Graph) string {
	if n, ok := g.(Named); ok {
		return n.Name()
	}
	return fmt.Sprintf("graph[N=%d]", g.Order())
}

// Adjacency is a concrete Graph backed by explicit adjacency lists.
type Adjacency struct {
	name string
	adj  [][]int
}

// NewAdjacency builds an Adjacency graph from lists (which are
// retained, not copied).
func NewAdjacency(name string, adj [][]int) *Adjacency {
	return &Adjacency{name: name, adj: adj}
}

// Name returns the display name.
func (a *Adjacency) Name() string { return a.name }

// Order returns the number of nodes.
func (a *Adjacency) Order() int { return len(a.adj) }

// Neighbors returns the out-neighbors of v.
func (a *Adjacency) Neighbors(v int) []int { return a.adj[v] }

// Materialize copies any Graph into an Adjacency graph, making
// neighbor queries cheap for repeated analytics.
func Materialize(g Graph) *Adjacency {
	n := g.Order()
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		adj[v] = append([]int(nil), nb...)
	}
	return &Adjacency{name: NameOf(g), adj: adj}
}

// BFS runs breadth-first search from src and returns the distance
// slice (-1 for unreachable nodes).
//
// BFS, StatsFrom, DegreeProfile and LooksVertexSymmetric in this file
// are the sequential reference implementations the CSR engine is
// tested against.  Analytics should materialize a CSR
// (NewCSRFromCayley / NewCSRFromGraph) and use its allocation-lean
// drivers.
func BFS(g Graph, src int) []int {
	n := g.Order()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Stats aggregates distance statistics from a single source.  For a
// vertex-symmetric graph these equal the global statistics.
type Stats struct {
	Source      int
	Ecc         int     // eccentricity of the source
	Mean        float64 // average distance to the other N-1 nodes
	Reached     int     // nodes reachable from the source (incl. source)
	Connected   bool
	DistCounted int64 // sum of distances
}

// StatsFrom computes distance statistics from src.
func StatsFrom(g Graph, src int) Stats {
	dist := BFS(g, src)
	s := Stats{Source: src, Connected: true}
	for _, d := range dist {
		if d < 0 {
			s.Connected = false
			continue
		}
		s.Reached++
		s.DistCounted += int64(d)
		if d > s.Ecc {
			s.Ecc = d
		}
	}
	if s.Reached > 1 {
		s.Mean = float64(s.DistCounted) / float64(s.Reached-1)
	}
	return s
}

// IsUndirected reports whether every arc has a reverse arc.
func IsUndirected(g Graph) bool {
	n := g.Order()
	// Build arc set; sizes here are ≤ a few million in tests.
	type arc struct{ a, b int }
	arcs := make(map[arc]bool)
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			arcs[arc{v, w}] = true
		}
	}
	for a := range arcs {
		if !arcs[arc{a.b, a.a}] {
			return false
		}
	}
	return true
}

// DegreeProfile returns the sorted distance profile from src: how many
// nodes lie at each distance.  Two nodes of a vertex-symmetric graph
// must have identical profiles.
func DegreeProfile(g Graph, src int) []int {
	dist := BFS(g, src)
	maxd := 0
	for _, d := range dist {
		if d > maxd {
			maxd = d
		}
	}
	profile := make([]int, maxd+1)
	for _, d := range dist {
		if d >= 0 {
			profile[d]++
		}
	}
	return profile
}

// LooksVertexSymmetric checks a necessary condition for vertex
// symmetry: the distance profiles from up to sample source nodes are
// identical.  (Full vertex-transitivity checking is an isomorphism
// problem; for Cayley graphs symmetry holds by construction, and this
// check guards the implementation.)
func LooksVertexSymmetric(g Graph, sample int) bool {
	n := g.Order()
	if n == 0 {
		return false
	}
	if sample > n {
		sample = n
	}
	ref := DegreeProfile(g, 0)
	step := n / sample
	if step == 0 {
		step = 1
	}
	for v := step; v < n; v += step {
		p := DegreeProfile(g, v)
		if len(p) != len(ref) {
			return false
		}
		for i := range p {
			if p[i] != ref[i] {
				return false
			}
		}
	}
	return true
}

// DiameterLowerBound returns the universal (Moore-style) diameter
// lower bound DL(d, N) for a graph with N nodes and out-degree d: the
// smallest D with 1 + d + d² + … + d^D ≥ N.
func DiameterLowerBound(d int, n int64) int {
	if n <= 1 {
		return 0
	}
	if d <= 1 {
		return int(n - 1)
	}
	var reach, level int64 = 1, 1
	for depth := 1; ; depth++ {
		level *= int64(d)
		if level < 0 || reach+level < 0 { // overflow ⇒ certainly ≥ n
			return depth
		}
		reach += level
		if reach >= n {
			return depth
		}
	}
}

// Bisection width and the like are deliberately omitted: the paper
// makes no bisection claims and exact bisection is NP-hard.

// Log2 returns log₂ x as float64 (tiny convenience for bound
// formulas; kept here so bound code reads like the paper).
func Log2(x float64) float64 { return math.Log2(x) }
