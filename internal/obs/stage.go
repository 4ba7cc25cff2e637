package obs

// Pipeline stages: the named phases a request passes through (decode,
// admission, queue wait, route, shard dispatch, cache hit/miss, table
// walk, fault-in, kernel, encode, ...).  A Stage is a
// dense uint8 id handed out once per name at package init; observing a
// duration against it is one array index plus a histogram observation,
// so the flight recorder's Mark and the sampled deep-path timers stay
// allocation-free.
//
// Every stage owns a scg_stage_<name>_ns power-of-two histogram in the
// default registry (and is tracked by the default WindowRing), so the
// per-stage latency distribution rides the ordinary /metrics surface
// with no extra plumbing.  Stage names obey the same register-once
// snake_case discipline as metric names; scglint's obs-discipline
// analyzer enforces that at every NewStage call site.

import (
	"fmt"
	"sync"
)

// MaxStages bounds the stage roster; NewStage panics past it.  Stage 0
// is reserved as "no stage" so the zero value is inert.
const MaxStages = 32

// Stage identifies one registered pipeline stage.  The zero value is
// valid and means "none": Observe on it is a no-op.
type Stage uint8

// StageHistPrefix/StageHistSuffix frame the per-stage histogram names:
// stage "queue_wait" observes into scg_stage_queue_wait_ns.
const (
	StageHistPrefix = "scg_stage_"
	StageHistSuffix = "_ns"
)

var stageReg struct {
	mu     sync.Mutex
	byName map[string]Stage
	n      int
}

// stageNames and stageHists are indexed by Stage (1-based); they are
// written only under stageReg.mu during registration, which the lint
// discipline confines to package initialization — before any hot-path
// reader runs.
var (
	stageNames [MaxStages + 1]string
	stageHists [MaxStages + 1]*Histogram
)

// NewStage registers (or returns) the stage with the given snake_case
// name, creating its scg_stage_<name>_ns histogram in the default
// registry and tracking it in the default window ring.  Registration
// is idempotent by name and must happen at startup (package var, init,
// or a New* constructor) — scglint's obs-discipline analyzer holds
// call sites to the same rules as metric registration.
func NewStage(name string) Stage {
	stageReg.mu.Lock()
	defer stageReg.mu.Unlock()
	if stageReg.byName == nil {
		stageReg.byName = make(map[string]Stage)
	}
	if s, ok := stageReg.byName[name]; ok {
		return s
	}
	if !validStageName(name) {
		panic(fmt.Sprintf("obs: invalid stage name %q (want lowercase snake_case)", name))
	}
	if stageReg.n >= MaxStages {
		panic(fmt.Sprintf("obs: stage roster full (MaxStages=%d) registering %q", MaxStages, name))
	}
	stageReg.n++
	s := Stage(stageReg.n)
	stageReg.byName[name] = s
	stageNames[s] = name
	hist := StageHistPrefix + name + StageHistSuffix
	stageHists[s] = Default.Pow2Hist(hist, "latency of pipeline stage "+name+" (ns)") //scg:ignore obs-discipline -- name is derived from the NewStage argument, which the analyzer checks for constness at every call site
	Windows.Track(hist)
	return s
}

// validStageName is stricter than metric names: lowercase snake_case
// only, so the derived histogram name is itself valid.
func validStageName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// Name returns the registered stage name ("" for the zero Stage).
func (s Stage) Name() string {
	if int(s) > len(stageNames)-1 {
		return ""
	}
	return stageNames[s]
}

// Observe records a duration in nanoseconds against the stage's
// histogram on the stripe selected by slot.  The zero Stage observes
// nothing.
//
//scg:noalloc
func (s Stage) Observe(slot int, ns uint64) {
	if s == 0 {
		return
	}
	if h := stageHists[s]; h != nil {
		h.Observe(slot, ns)
	}
}

// StageLat is one row of a per-stage latency breakdown.
type StageLat struct {
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count"`
	SumNs   uint64  `json:"sum_ns"`
	P50Ns   uint64  `json:"p50_ns"`
	P99Ns   uint64  `json:"p99_ns"`
	MeanNs  uint64  `json:"mean_ns"`
	SharePc float64 `json:"share_pct"`
}

// StageBreakdown summarizes every scg_stage_*_ns histogram of snap.
// Rows are sorted by total time descending, then name, and SharePc is
// each stage's share of the summed stage time — the table
// `scg stats -stages` prints.
func StageBreakdown(snap Snapshot) []StageLat {
	var rows []StageLat
	var total uint64
	for _, h := range snap.Histograms {
		name, ok := stageOfHist(h.Name)
		if !ok || h.Count == 0 {
			continue
		}
		p50, _ := h.Quantile(0.50)
		p99, _ := h.Quantile(0.99)
		rows = append(rows, StageLat{
			Stage: name, Count: h.Count, SumNs: h.Sum,
			P50Ns: p50, P99Ns: p99, MeanNs: h.Sum / h.Count,
		})
		total += h.Sum
	}
	for i := range rows {
		if total > 0 {
			rows[i].SharePc = 100 * float64(rows[i].SumNs) / float64(total)
		}
	}
	sortStageLats(rows)
	return rows
}

// stageOfHist maps a histogram name back to its stage name; ok is
// false for non-stage histograms.
func stageOfHist(hist string) (string, bool) {
	if len(hist) <= len(StageHistPrefix)+len(StageHistSuffix) {
		return "", false
	}
	if hist[:len(StageHistPrefix)] != StageHistPrefix ||
		hist[len(hist)-len(StageHistSuffix):] != StageHistSuffix {
		return "", false
	}
	return hist[len(StageHistPrefix) : len(hist)-len(StageHistSuffix)], true
}

func sortStageLats(rows []StageLat) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0; j-- {
			a, b := &rows[j-1], &rows[j]
			if a.SumNs > b.SumNs || (a.SumNs == b.SumNs && a.Stage <= b.Stage) {
				break
			}
			rows[j-1], rows[j] = rows[j], rows[j-1]
		}
	}
}

// FormatStageTable renders a breakdown as an aligned text table (one
// header line, one line per stage); deterministic for a given input.
func FormatStageTable(rows []StageLat) string {
	if len(rows) == 0 {
		return "  (no stage observations)\n"
	}
	out := fmt.Sprintf("  %-18s %12s %12s %12s %12s %7s\n",
		"stage", "count", "mean", "p50", "p99", "share")
	for _, r := range rows {
		out += fmt.Sprintf("  %-18s %12d %12s %12s %12s %6.1f%%\n",
			r.Stage, r.Count, fmtNs(r.MeanNs), fmtNs(r.P50Ns), fmtNs(r.P99Ns), r.SharePc)
	}
	return out
}

// fmtNs renders nanoseconds with a unit suited to the magnitude.
func fmtNs(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
