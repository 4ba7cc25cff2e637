package core

import (
	"sort"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// Fault-aware routing support: the greedy emulation route of Route is
// a fixed generator sequence, which is exactly what breaks when a
// link on it dies.  StepOptions exposes the per-hop view a rerouting
// layer needs — the greedy next generator, plus every alternate
// generator of the set ranked by how good the network looks from the
// node it leads to — so a blocked step can detour through a different
// generator and resume greedy routing from there.

// StepOptions returns every generator of the defining set as a
// candidate next hop from u toward v, in preference order: the greedy
// step first, then the remaining generators by ascending length of
// the emulation route from the node they lead to (ties broken by set
// order, so the ranking is deterministic).  Parallel generators (the
// insertion-selection multigraph links) appear individually — a dead
// link's parallel twin is a legitimate one-hop detour.  Returns nil
// when u == v.
func (nw *Network) StepOptions(u, v perm.Perm) []gens.Generator {
	seq := nw.Route(u, v)
	if len(seq) == 0 {
		return nil
	}
	set := nw.set
	greedyIdx := set.Index(seq[0])
	type cand struct {
		idx, score int
	}
	cands := make([]cand, 0, set.Len())
	buf := make(perm.Perm, nw.k)
	for i := 0; i < set.Len(); i++ {
		if i == greedyIdx {
			continue
		}
		set.At(i).ApplyInto(buf, u)
		score := 0
		if !buf.Equal(v) {
			score = len(nw.Route(buf, v))
		}
		cands = append(cands, cand{idx: i, score: score})
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].score < cands[b].score })
	out := make([]gens.Generator, 0, set.Len())
	out = append(out, set.At(greedyIdx))
	for _, c := range cands {
		out = append(out, set.At(c.idx))
	}
	return out
}
