// Package tables implements precomputed next-dimension routing tables
// over the quotient space of a super Cayley network — the
// spanning-factorization end state of ROADMAP item 2 (Dougherty–Faber:
// a spanning factorization of a Cayley graph yields global one-hop
// routing tables).
//
// Routing is left-translation-invariant, so every pair (u, v) reduces
// to sorting the quotient w = v⁻¹∘u to the identity.  The table stores
// ONE BYTE per quotient rank: the star dimension the greedy cycle
// algorithm moves along next (core.GreedyDim), not the first generator
// index of the expanded route.  Two different dimensions can expand to
// sequences that share a first generator (in MS(2,2), T₄ and T₅ both
// open with S₂), so a first-port table could not be replayed
// unambiguously — the dimension can, and replaying
// dimExp[dims[rank(w)]] per hop reproduces the kernel's route port for
// port by construction.  Each hop is then: one byte load, one
// expansion append, one transposition of w, and an incremental Lehmer
// rerank (perm.RankSwapUpdate — no division, no O(k²) recompute).
//
// Dense tables at k ≤ FastLaneMaxK additionally carry two derived
// fast-lane arrays: the successor-rank array (each entry's incremental
// rerank, precomputed via perm.RankAfterSwap, so the hot walk is a
// pure dims/next chase that ranks w once and never mutates it) and the
// rank→permutation slab (so rank-addressed routes — AppendRouteRanks —
// resolve both endpoints with slab reads instead of two
// division-heavy UnrankInto calls).
//
// Two residency modes:
//
//   - dense (k ≤ DenseMaxK): one flat []uint8 of length k!, built in
//     parallel by a worker pool walking rank bands (perm.UnrankInto at
//     the band start, perm.Next per step).  k = 10 is 3 628 800 bytes.
//   - banded (k ≤ BandedMaxK): the rank space is cut into 2^BandBits
//     -entry bands materialized on demand.  A missing band at the walk
//     start is faulted in, or, when the residency budget refuses the
//     fault, the lookup declines so the caller (the shard engine)
//     falls through to its kernel; a band missing mid-walk never
//     declines — the walk swaps in core.GreedyDim for that hop, which
//     is output-identical.
package tables

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
)

const (
	// DenseMaxK caps dense tables: 10! bytes ≈ 3.6 MB resident.
	DenseMaxK = 10
	// FastLaneMaxK caps the dense fast-lane arrays: the rank→permutation
	// slab (k bytes per rank, so rank-addressed routes skip UnrankInto)
	// and the successor-rank array (4 bytes per rank — the incremental
	// rerank of RankAfterSwap, precomputed, so the walk is a pure table
	// chase).  Together they cost (k+4)× the dims array; at k = 9 that
	// is ~4.7 MB on top of 363 KB of dims, at k = 10 it would be 50 MB —
	// past the cap a dense table stays 1 byte per rank and routes
	// through the digits walk.
	FastLaneMaxK = 9
	// BandedMaxK caps banded tables: ranks stay exact (≤ 12! fits the
	// cache's RankKeyMaxK regime) and a full table would be 479 MB —
	// banding keeps residency proportional to traffic.
	BandedMaxK = 12
	// DefaultBandBits sizes on-demand bands at 64 Ki entries (64 KiB).
	DefaultBandBits = 16
)

// Mode selects table residency.
type Mode uint8

const (
	// ModeAuto picks dense for k ≤ DenseMaxK, else banded.
	ModeAuto Mode = iota
	// ModeDense materializes the full k! table at build time.
	ModeDense
	// ModeBanded materializes 2^BandBits-entry bands on first touch.
	ModeBanded
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeDense:
		return "dense"
	case ModeBanded:
		return "banded"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// FaultPolicy says what a banded table does when a walk meets an
// unbuilt band.  FaultBuild is the only policy; Build rejects any
// other value.
type FaultPolicy uint8

// FaultBuild materializes the missing band synchronously and publishes
// it for every later route, unless the residency budget refuses it.
const FaultBuild FaultPolicy = 0

// Config parameterizes Build.  The zero value is ModeAuto,
// DefaultBandBits, FaultBuild, GOMAXPROCS build workers, no residency
// budget.
type Config struct {
	Mode     Mode
	BandBits uint // log2 band entries for banded mode; 0 → DefaultBandBits
	Policy   FaultPolicy
	Workers  int // parallel build workers; 0 → GOMAXPROCS
	// MaxResidentBytes bounds the banded table's materialized dims
	// bytes (0 = unlimited; dense mode ignores it).  A band fault that
	// would cross the budget is refused instead of built: at the walk
	// start the lookup declines so the caller falls through to its
	// kernel, mid-walk the hop substitutes core.GreedyDim —
	// output-identical either way, so the budget trades speed for
	// memory, never correctness.  Racing faulters may overshoot by at
	// most (concurrent faulters − 1) bands.
	MaxResidentBytes int64
}

// Table is a precomputed next-dimension routing table for one network.
// All methods are safe for concurrent use once Build returns.
type Table struct {
	name string
	k    int
	n    int64

	// exp[d] is the network's dimension-d expansion (d = 2..k), cloned
	// from core.Network.DimExpansion so the table is self-contained.
	exp [][]gens.GenIndex

	mode Mode // ModeDense or ModeBanded (never ModeAuto)

	// Dense residency: the whole table, dims[rank] ∈ {0, 2..k}.
	dims []uint8

	// Dense fast-lane arrays, built when k ≤ FastLaneMaxK and immutable
	// afterwards.  perms is the rank→permutation slab (k bytes per
	// rank): AppendRouteRanks resolves both endpoints with two slab
	// reads instead of two division-heavy UnrankInto calls.  next is
	// the successor-rank array: next[r] is the rank after the greedy
	// star move at r (RankAfterSwap, precomputed at build), so the hot
	// walk never reranks — it chases dims/next until dims[r] == 0.
	perms []uint8
	next  []uint32

	// Banded residency: bands[b] covers ranks [b<<bandBits,
	// (b+1)<<bandBits) ∩ [0, n); published once via CompareAndSwap and
	// immutable afterwards.
	bandBits uint
	bandMask int64
	bands    []atomic.Pointer[[]uint8]
	budget   int64 // max resident dims bytes (0 = unlimited)

	buildNS       int64 // initial Build wall time, ns
	bandsBuilt    atomic.Int64
	bandFaults    atomic.Int64
	budgetRefused atomic.Int64 // band faults refused by the residency budget
	resident      atomic.Int64 // built dims bytes
}

// Stats is a point-in-time table census.
type Stats struct {
	Name          string
	K             int
	Mode          string
	BandsBuilt    int64 // bands materialized (dense: total bands = 1 slab)
	BandFaults    int64 // on-demand materializations triggered by routing
	BudgetRefused int64 // band faults refused by the residency budget
	Bytes         int64 // resident dims bytes
	BudgetBytes   int64 // residency budget (0 = unlimited)
	BuildNS       int64 // initial Build wall time
}

// Build constructs the table for nw by walking the quotient rank space
// with cfg.Workers parallel band walkers.  Dense mode fills the whole
// table; banded mode builds nothing up front (bands appear on demand).
func Build(nw *core.Network, cfg Config) (*Table, error) {
	k := nw.K()
	mode := cfg.Mode
	if mode == ModeAuto {
		if k <= DenseMaxK {
			mode = ModeDense
		} else {
			mode = ModeBanded
		}
	}
	switch mode {
	case ModeDense:
		if k > DenseMaxK {
			return nil, fmt.Errorf("tables: dense mode caps at k=%d (%s has k=%d); use banded", DenseMaxK, nw.Name(), k)
		}
	case ModeBanded:
		if k > BandedMaxK {
			return nil, fmt.Errorf("tables: banded mode caps at k=%d (%s has k=%d)", BandedMaxK, nw.Name(), k)
		}
	default:
		return nil, fmt.Errorf("tables: unknown mode %v", cfg.Mode)
	}
	if cfg.Policy != FaultBuild {
		return nil, fmt.Errorf("tables: unknown fault policy %d", cfg.Policy)
	}
	bandBits := cfg.BandBits
	if bandBits == 0 {
		bandBits = DefaultBandBits
	}
	if bandBits > 30 {
		return nil, fmt.Errorf("tables: band bits %d too large", bandBits)
	}
	t := &Table{
		name:     nw.Name(),
		k:        k,
		n:        nw.N(),
		mode:     mode,
		bandBits: bandBits,
		bandMask: int64(1)<<bandBits - 1,
		budget:   cfg.MaxResidentBytes,
	}
	t.exp = make([][]gens.GenIndex, k+1)
	for d := 2; d <= k; d++ {
		t.exp[d] = append([]gens.GenIndex(nil), nw.DimExpansion(d)...)
	}
	t0 := time.Now()
	if mode == ModeDense {
		t.dims = make([]uint8, t.n)
		if k <= FastLaneMaxK {
			t.perms = make([]uint8, t.n*int64(k))
			t.next = make([]uint32, t.n)
		}
		buildRange(t.dims, t.perms, t.next, k, 0, t.n, cfg.Workers)
		t.bandsBuilt.Store(1)
		t.resident.Store(t.n + int64(len(t.perms)) + 4*int64(len(t.next)))
	} else {
		t.bands = make([]atomic.Pointer[[]uint8], t.numBands())
	}
	t.buildNS = time.Since(t0).Nanoseconds()
	hBuildNs.Observe(0, uint64(t.buildNS))
	registerTable(t)
	return t, nil
}

// buildRange fills dims (indexed from lo) with the greedy next
// dimension of every quotient rank in [lo, hi), fanned out over
// workers walking disjoint sub-bands: one unrank at the sub-band
// start, then lexicographic successors — amortized O(1) per rank.
// Dense builds at k ≤ FastLaneMaxK also fill the fast-lane arrays in
// the same walk: perms records each rank's permutation bytes (k per
// rank) and next the rank after the greedy star move (RankAfterSwap —
// the walker knows r, so the incremental rerank is exact and cheap).
// perms and next may be nil: band builds pass only dims.
func buildRange(dims, perms []uint8, next []uint32, k int, lo, hi int64, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := hi - lo
	if total <= 0 {
		return
	}
	// ≥ 4 sub-bands per worker so a straggler band cannot serialize the
	// build; floor keeps tiny tables on one walker.
	chunk := total / int64(workers*4)
	if chunk < 1024 {
		chunk = 1024
	}
	var cursor atomic.Int64
	cursor.Store(lo)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(dims, perms []uint8, next []uint32, lo, hi, chunk int64) {
			defer wg.Done()
			p := make(perm.Perm, k)
			for {
				start := cursor.Add(chunk) - chunk
				if start >= hi {
					return
				}
				end := start + chunk
				if end > hi {
					end = hi
				}
				perm.UnrankInto(p, start)
				for r := start; r < end; r++ {
					d := uint8(core.GreedyDim(p))
					if dims != nil {
						dims[r-lo] = d
					}
					if perms != nil {
						copy(perms[(r-lo)*int64(k):], p)
					}
					if next != nil {
						if d == 0 {
							next[r-lo] = uint32(r) // identity: self-loop, never chased
						} else {
							next[r-lo] = uint32(perm.RankAfterSwap(p, r, 0, int(d)-1))
						}
					}
					perm.Next(p)
				}
			}
		}(dims, perms, next, lo, hi, chunk)
	}
	wg.Wait()
	if dims != nil {
		mRanksBuilt.Add(uint64(total))
	}
}

// Bytes returns the resident table payload in bytes: built dims bands
// plus the rank→permutation slab when present (expansions and headers
// are noise by comparison).
func (t *Table) Bytes() int64 { return t.resident.Load() }

// Stats returns the current census.
func (t *Table) Stats() Stats {
	return Stats{
		Name:          t.name,
		K:             t.k,
		Mode:          t.mode.String(),
		BandsBuilt:    t.bandsBuilt.Load(),
		BandFaults:    t.bandFaults.Load(),
		BudgetRefused: t.budgetRefused.Load(),
		Bytes:         t.Bytes(),
		BudgetBytes:   t.budget,
		BuildNS:       t.buildNS,
	}
}

func (t *Table) numBands() int64 {
	return (t.n + t.bandMask) >> t.bandBits
}

// band returns band b, materializing and publishing it if absent, or
// nil when the residency budget refuses the build.  The budget check
// reads resident before the CAS publish, so racing faulters can
// overshoot by at most (concurrent faulters − 1) bands — bounded, and
// only under contention for distinct unbuilt bands.
func (t *Table) band(b int64) *[]uint8 {
	if p := t.bands[b].Load(); p != nil {
		return p
	}
	lo := b << t.bandBits
	hi := lo + t.bandMask + 1
	if hi > t.n {
		hi = t.n
	}
	if t.budget > 0 && t.resident.Load()+(hi-lo) > t.budget {
		t.budgetRefused.Add(1)
		mBudgetRefused.Inc()
		return nil
	}
	t0 := obs.NowNs()
	dims := make([]uint8, hi-lo)
	buildRange(dims, nil, nil, t.k, lo, hi, 1)
	// Fault-ins are rare and expensive (a synchronous band build on the
	// route path), so every one is timed — no sampling gate.
	stFaultIn.Observe(int(b), uint64(obs.NowNs()-t0))
	p := &dims
	if !t.bands[b].CompareAndSwap(nil, p) {
		return t.bands[b].Load() // concurrent faulter won the publish
	}
	t.bandsBuilt.Add(1)
	t.resident.Add(int64(len(dims)))
	mBandsBuilt.Inc()
	return p
}

// AppendRouteRanks serves the route for an endpoint-rank pair entirely
// from precomputed state.  Both endpoints come from the
// rank→permutation slab (two reads — no UnrankInto divisions), the
// quotient v⁻¹∘u is composed into stack arrays, and the walk is
// appendDense.  Declines (dst unchanged) when the table carries no
// slab: banded mode, or dense with k > FastLaneMaxK, where the
// caller's standard unrank path takes over.  Ranks must be in [0, N);
// the slab slices are read-only and never escape.
//
//scg:noalloc
func (t *Table) AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, bool) {
	if t.perms == nil {
		return dst, false
	}
	k := int64(t.k)
	u := perm.Perm(t.perms[src*k : src*k+k])
	v := perm.Perm(t.perms[dstRank*k : dstRank*k+k])
	var invArr, wArr [perm.MaxK]uint8
	inv := perm.Perm(invArr[:k])
	w := perm.Perm(wArr[:k])
	v.InverseInto(inv)
	inv.ComposeInto(w, u)
	return t.appendDense(dst, w), true
}

// AppendQuotientRoute appends the canonical route sorting quotient w
// to the identity and reports whether the table served it.  A banded
// table declines (dst and w untouched) when the residency budget
// refuses the starting band; every other case succeeds, using w as
// scratch (the digits walk consumes it, the fast-lane chase only ranks
// it).
func (t *Table) AppendQuotientRoute(dst []gens.GenIndex, w perm.Perm) ([]gens.GenIndex, bool) {
	if t.mode == ModeDense {
		return t.appendDense(dst, w), true
	}
	return t.appendBanded(dst, w)
}

// appendDense is the table-mode hot loop.  With the fast lane built
// (k ≤ FastLaneMaxK) each hop is two flat-array loads and one
// expansion append — the rerank is already in the successor array, so
// w is only ranked once and never mutated.  Past the cap the walk
// falls back to transposition plus the division-free incremental
// rerank of RankSwapUpdate.  The digit vector lives on the stack; the
// only allocation anywhere is dst growth.
//
//scg:noalloc
func (t *Table) appendDense(dst []gens.GenIndex, w perm.Perm) []gens.GenIndex {
	var digArr [perm.MaxK]int32
	dig := digArr[:len(w)]
	rank := perm.LehmerDigitsInto(dig, w)
	mark := len(dst)
	if t.next != nil {
		for {
			d := t.dims[rank]
			if d == 0 {
				mTableRoutes.Inc()
				mTableSteps.Add(uint64(len(dst) - mark))
				return dst
			}
			dst = append(dst, t.exp[d]...)
			rank = int64(t.next[rank])
		}
	}
	for {
		d := t.dims[rank]
		if d == 0 {
			mTableRoutes.Inc()
			mTableSteps.Add(uint64(len(dst) - mark))
			return dst
		}
		dst = append(dst, t.exp[d]...)
		j := int(d) - 1
		rank += perm.RankSwapUpdate(w, dig, 0, j)
		w[0], w[j] = w[j], w[0]
	}
}

// appendBanded is the dense walk against on-demand bands.  A walk that
// STARTS in an absent band faults it in, and declines when the
// residency budget refuses the fault — the caller then falls through
// to its kernel.  Absent bands mid-walk never decline: they are
// faulted in too (budget permitting), otherwise the hop substitutes
// core.GreedyDim — the same value the band would hold, so the route
// bytes are identical either way.
func (t *Table) appendBanded(dst []gens.GenIndex, w perm.Perm) ([]gens.GenIndex, bool) {
	var digArr [perm.MaxK]int32
	dig := digArr[:len(w)]
	rank := perm.LehmerDigitsInto(dig, w)
	if t.bands[rank>>t.bandBits].Load() == nil {
		t.bandFaults.Add(1)
		mBandFaults.Inc()
		if t.band(rank>>t.bandBits) == nil {
			mDeclines.Inc()
			return dst, false
		}
	}
	mark := len(dst)
	for {
		var d uint8
		if p := t.bands[rank>>t.bandBits].Load(); p != nil {
			d = (*p)[rank&t.bandMask]
		} else {
			t.bandFaults.Add(1)
			mBandFaults.Inc()
			if p := t.band(rank >> t.bandBits); p != nil {
				d = (*p)[rank&t.bandMask]
			} else {
				d = uint8(core.GreedyDim(w))
			}
		}
		if d == 0 {
			mTableRoutes.Inc()
			mTableSteps.Add(uint64(len(dst) - mark))
			return dst, true
		}
		dst = append(dst, t.exp[d]...)
		j := int(d) - 1
		rank += perm.RankSwapUpdate(w, dig, 0, j)
		w[0], w[j] = w[j], w[0]
	}
}
