package obs

import (
	"math"
	"testing"
	"time"
)

// Window tests drive Rotate by hand on private registries and rings —
// the arithmetic is deterministic, no ticker involved.

func TestWindowRingArithmetic(t *testing.T) {
	reg := NewRegistry()
	h := reg.Pow2Hist("win_test_ns", "window arithmetic fixture")
	w := NewWindowRing(reg, time.Second, 4)
	w.Track("win_test_ns")

	// Before any rotation the baseline is zero: the window is the full
	// cumulative history.
	h.Observe(0, 100)
	snap, ok := w.Window("win_test_ns", 1)
	if !ok || snap.Count != 1 {
		t.Fatalf("pre-rotation window = (%+v, %v), want the full history (count 1)", snap, ok)
	}

	w.Rotate()
	h.Observe(0, 200)
	h.Observe(0, 300)
	snap, ok = w.Window("win_test_ns", 1)
	if !ok || snap.Count != 2 {
		t.Fatalf("1-rotation window count = %d, want 2 (the pre-rotation observation subtracted)", snap.Count)
	}
	// k beyond the rotation count clamps to the oldest capture.
	snap, _ = w.Window("win_test_ns", 100)
	if snap.Count != 2 {
		t.Fatalf("clamped window count = %d, want 2", snap.Count)
	}

	w.Rotate()
	snap, _ = w.Window("win_test_ns", 1)
	if snap.Count != 0 {
		t.Fatalf("freshly rotated window count = %d, want 0", snap.Count)
	}
	snap, _ = w.Window("win_test_ns", 2)
	if snap.Count != 2 {
		t.Fatalf("2-rotation window count = %d, want 2", snap.Count)
	}

	q, ok := w.Quantile("win_test_ns", 0.5, 2)
	if !ok || q < 200 || q > 512 {
		t.Fatalf("2-rotation p50 = (%d, %v), want a pow2 upper bound covering {200, 300}", q, ok)
	}

	if _, ok := w.Window("no_such_hist", 1); ok {
		t.Fatal("Window on an unregistered histogram reported ok")
	}

	if got := w.rotations; got != 2 {
		t.Fatalf("rotations = %d, want 2", got)
	}
	if got := w.period; got != time.Second {
		t.Fatalf("period = %v, want 1s", got)
	}
}

func TestSLOBurnRate(t *testing.T) {
	reg := NewRegistry()
	h := reg.Pow2Hist("slo_test_ns", "SLO arithmetic fixture")
	w := NewWindowRing(reg, time.Second, 8)
	s := NewSLO(reg, w, SLOConfig{Hist: "slo_test_ns", LatencyNs: 1 << 20, Objective: 0.9, Windows: 4})

	if br := s.BurnRate(); br != 0 {
		t.Fatalf("empty-window burn rate = %v, want 0", br)
	}

	// 9 events well under the ~1ms target, 1 far over: the bad fraction
	// (0.1) exactly matches the error budget (1 − 0.9), so the burn
	// rate is 1.0 — the budget burns as fast as it accrues.
	for i := 0; i < 9; i++ {
		h.Observe(0, 1000)
	}
	h.Observe(0, 1<<30)
	if br := s.BurnRate(); math.Abs(br-1.0) > 1e-9 {
		t.Fatalf("burn rate = %v, want 1.0 (bad fraction equals error budget)", br)
	}
	good, bad := s.cumulative()
	if good != 9 || bad != 1 {
		t.Fatalf("cumulative good/bad = %d/%d, want 9/1", good, bad)
	}

	// Rotating puts all ten events behind the window baseline: the
	// rolling burn rate drops back to zero while the cumulative
	// good/bad counters keep the history.
	w.Rotate()
	if br := s.BurnRate(); br != 0 {
		t.Fatalf("post-rotation burn rate = %v, want 0", br)
	}
	good, bad = s.cumulative()
	if good != 9 || bad != 1 {
		t.Fatalf("post-rotation cumulative good/bad = %d/%d, want 9/1", good, bad)
	}
}

func TestSLOObjectiveValidation(t *testing.T) {
	reg := NewRegistry()
	w := NewWindowRing(reg, time.Second, 2)
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSLO accepted objective %v", bad)
				}
			}()
			NewSLO(reg, w, SLOConfig{Hist: "x_ns", LatencyNs: 1, Objective: bad})
		}()
	}
}
