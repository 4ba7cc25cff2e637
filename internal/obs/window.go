package obs

// Rolling-window quantiles and SLO burn rates.
//
// The registry's histograms are cumulative — exactly what long-run
// benchmarks want and exactly what an operator watching "p99 over the
// last minute" does not.  A WindowRing periodically captures
// cumulative snapshots of a tracked histogram set into a ring; the
// distribution over the last k windows is then the current cumulative
// snapshot minus the capture k rotations back (HistSnap.Sub), and
// windowed quantiles fall out of the ordinary Quantile method.  No
// extra hot-path cost: the instruments being windowed are the same
// always-on histograms, and rotation is one cold snapshot per period.
//
// An SLO turns a windowed latency histogram into the standard alerting
// vocabulary: observations above the latency target are "bad events",
// and the burn rate is the bad fraction of the window divided by the
// error budget (1 − objective) — 1.0 means the budget burns exactly
// as fast as it accrues.  Everything is exposed as scg_slo_* gauges
// and counters on the ordinary /metrics surface.

import (
	"sync"
	"time"
)

// Hist snapshots the single named histogram; ok is false when the
// name is unregistered.
func (r *Registry) Hist(name string) (HistSnap, bool) {
	r.mu.Lock()
	h, ok := r.hists[name]
	r.mu.Unlock()
	if !ok {
		return HistSnap{}, false
	}
	return histSnapOf(h), true
}

// WindowRing captures cumulative snapshots of a tracked histogram set
// on a fixed period, retaining the last depth captures.
type WindowRing struct {
	reg    *Registry
	period time.Duration

	mu        sync.Mutex
	names     []string
	ring      []map[string]HistSnap // ring[i]: capture i rotations ago is ring[(head-i) mod depth]
	head      int
	rotations int
	started   bool
}

// NewWindowRing builds a ring of depth captures taken every period.
// Rotation is manual (Rotate) until Start launches the ticker.
func NewWindowRing(reg *Registry, period time.Duration, depth int) *WindowRing {
	if depth < 1 {
		panic("obs: WindowRing needs depth ≥ 1")
	}
	return &WindowRing{reg: reg, period: period, ring: make([]map[string]HistSnap, depth)}
}

// Windows is the process-wide ring (1s windows, 64 deep) the stage
// histograms and the serve SLO report through; `scg serve` starts its
// ticker.
var Windows = NewWindowRing(Default, time.Second, 64)

// Track adds histogram names to the captured set (idempotent).  Names
// tracked after rotations began window against a zero baseline until
// their first capture, which over-counts by at most the pre-tracking
// history.
func (w *WindowRing) Track(names ...string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, name := range names {
		seen := false
		for _, have := range w.names {
			if have == name {
				seen = true
				break
			}
		}
		if !seen {
			w.names = append(w.names, name)
		}
	}
}

// Rotate captures the tracked histograms' cumulative snapshots into
// the next ring slot.  The serve ticker calls it every period; tests
// call it directly for deterministic window arithmetic.
func (w *WindowRing) Rotate() {
	w.mu.Lock()
	names := append([]string(nil), w.names...)
	w.mu.Unlock()
	capture := make(map[string]HistSnap, len(names))
	for _, name := range names {
		if snap, ok := w.reg.Hist(name); ok {
			capture[name] = snap
		}
	}
	w.mu.Lock()
	w.head = (w.head + 1) % len(w.ring)
	w.ring[w.head] = capture
	w.rotations++
	w.mu.Unlock()
}

// Start launches the rotation ticker (idempotent).  The ticker runs
// for the life of the process — window state is process telemetry,
// not a per-request resource.
func (w *WindowRing) Start() {
	w.mu.Lock()
	already := w.started
	w.started = true
	w.mu.Unlock()
	if already {
		return
	}
	go func() {
		t := time.NewTicker(w.period)
		for range t.C {
			w.Rotate()
		}
	}()
}

// Window returns the distribution of the named histogram over the
// last k rotations: the current cumulative snapshot minus the capture
// k back (clamped to the oldest capture; before any rotation the
// baseline is zero and the full cumulative history is returned).  ok
// is false when the histogram is unregistered.
func (w *WindowRing) Window(name string, k int) (HistSnap, bool) {
	cur, ok := w.reg.Hist(name)
	if !ok {
		return HistSnap{}, false
	}
	if k < 1 {
		k = 1
	}
	w.mu.Lock()
	if k > w.rotations {
		k = w.rotations
	}
	if k > len(w.ring) {
		k = len(w.ring)
	}
	var base HistSnap
	haveBase := false
	if k > 0 {
		idx := (w.head - k + 1 + len(w.ring)*2) % len(w.ring)
		if capture := w.ring[idx]; capture != nil {
			base, haveBase = capture[name]
		}
	}
	w.mu.Unlock()
	if haveBase {
		cur = cur.Sub(base)
	}
	return cur, true
}

// Quantile returns the q quantile of the named histogram over the
// last k rotations; ok is false when the histogram is unregistered or
// the window is empty.
func (w *WindowRing) Quantile(name string, q float64, k int) (uint64, bool) {
	snap, ok := w.Window(name, k)
	if !ok {
		return 0, false
	}
	return snap.Quantile(q)
}

// SLOConfig binds a latency histogram to an objective: observations
// above LatencyNs are bad events, and at most (1 − Objective) of
// events may be bad.
type SLOConfig struct {
	Hist      string  // latency histogram name (nanoseconds, pow2)
	LatencyNs uint64  // latency target
	Objective float64 // e.g. 0.99 — fraction of events that must meet the target
	Windows   int     // rotations the burn-rate window spans (default 60)
}

// SLO reports windowed quantiles and burn rate for one latency
// objective, entirely through callback-backed metrics.
type SLO struct {
	w   *WindowRing
	cfg SLOConfig
}

// NewSLO registers the scg_slo_* metric surface for one latency
// objective over the given window ring (which it also Tracks the
// histogram in).  First registration wins per metric name, so a
// process configures at most one SLO.
func NewSLO(reg *Registry, w *WindowRing, cfg SLOConfig) *SLO {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		panic("obs: SLO objective must be in (0, 1)")
	}
	if cfg.Windows == 0 {
		cfg.Windows = 60
	}
	s := &SLO{w: w, cfg: cfg}
	w.Track(cfg.Hist)
	reg.GaugeFunc("scg_slo_target_ns", "latency target of the configured SLO (ns)",
		func() float64 { return float64(cfg.LatencyNs) })
	reg.GaugeFunc("scg_slo_objective", "fraction of events that must meet the latency target",
		func() float64 { return cfg.Objective })
	reg.GaugeFunc("scg_slo_window_burn_rate", "error-budget burn rate over the rolling window (1.0 = budget exhausts exactly at period end)",
		s.BurnRate)
	reg.GaugeFunc("scg_slo_window_p50_ns", "rolling-window p50 of the SLO histogram (ns)",
		func() float64 { return float64(s.windowQuantile(0.50)) })
	reg.GaugeFunc("scg_slo_window_p99_ns", "rolling-window p99 of the SLO histogram (ns)",
		func() float64 { return float64(s.windowQuantile(0.99)) })
	reg.GaugeFunc("scg_slo_window_p999_ns", "rolling-window p999 of the SLO histogram (ns)",
		func() float64 { return float64(s.windowQuantile(0.999)) })
	reg.CounterFunc("scg_slo_good_events_total", "events at or under the latency target",
		func() uint64 { good, _ := s.cumulative(); return good })
	reg.CounterFunc("scg_slo_bad_events_total", "events over the latency target",
		func() uint64 { _, bad := s.cumulative(); return bad })
	return s
}

// goodBad splits a snapshot's observations at the latency target.
// Bucket resolution decides ties: a bucket whose upper bound exceeds
// the target counts as bad, consistent with Quantile reporting upper
// bounds.
func (s *SLO) goodBad(snap HistSnap) (good, bad uint64) {
	for _, b := range snap.Buckets {
		if b.Le > s.cfg.LatencyNs {
			bad += b.Count
		} else {
			good += b.Count
		}
	}
	bad += snap.Overflow
	return good, bad
}

func (s *SLO) cumulative() (good, bad uint64) {
	snap, ok := s.w.reg.Hist(s.cfg.Hist)
	if !ok {
		return 0, 0
	}
	return s.goodBad(snap)
}

func (s *SLO) windowQuantile(q float64) uint64 {
	v, _ := s.w.Quantile(s.cfg.Hist, q, s.cfg.Windows)
	return v
}

// BurnRate returns the window's bad-event fraction divided by the
// error budget (1 − objective); 0 when the window is empty.
func (s *SLO) BurnRate() float64 {
	snap, ok := s.w.Window(s.cfg.Hist, s.cfg.Windows)
	if !ok || snap.Count == 0 {
		return 0
	}
	_, bad := s.goodBad(snap)
	return (float64(bad) / float64(snap.Count)) / (1 - s.cfg.Objective)
}
