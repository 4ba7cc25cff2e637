package graph

import (
	"fmt"
	"io"
	"sort"
)

// WriteDOT emits the graph in Graphviz DOT format.  Undirected graphs
// (every arc paired) are emitted as "graph" with each edge once;
// otherwise as "digraph".  labels, when non-nil, supplies node labels.
func WriteDOT(w io.Writer, g Graph, name string, labels func(int) string) error {
	undirected := IsUndirected(g)
	kind, sep := "digraph", "->"
	if undirected {
		kind, sep = "graph", "--"
	}
	if _, err := fmt.Fprintf(w, "%s %q {\n", kind, name); err != nil {
		return err
	}
	n := g.Order()
	if labels != nil {
		for v := 0; v < n; v++ {
			if _, err := fmt.Fprintf(w, "  %d [label=%q];\n", v, labels(v)); err != nil {
				return err
			}
		}
	}
	for v := 0; v < n; v++ {
		nbrs := append([]int(nil), g.Neighbors(v)...)
		sort.Ints(nbrs)
		for _, u := range nbrs {
			if undirected && u < v {
				continue // each undirected edge once
			}
			if _, err := fmt.Fprintf(w, "  %d %s %d;\n", v, sep, u); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
