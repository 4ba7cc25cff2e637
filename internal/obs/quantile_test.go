package obs

import (
	"math"
	"testing"
)

// TestQuantileRanks pins the rank arithmetic on a hand-built
// histogram: 10 observations spread over three buckets, with every
// quantile reported as its bucket's inclusive upper bound.
func TestQuantileRanks(t *testing.T) {
	h := HistSnap{
		Count: 10,
		Buckets: []BucketSnap{
			{Le: 1, Count: 4},  // ranks 1..4
			{Le: 3, Count: 3},  // ranks 5..7
			{Le: 15, Count: 3}, // ranks 8..10
		},
	}
	cases := []struct {
		q    float64
		want uint64
	}{
		{0, 1},    // rank clamps to the first observation
		{0.1, 1},  // rank 1
		{0.4, 1},  // rank 4, still the first bucket
		{0.41, 3}, // rank 5 spills into the second
		{0.5, 3},
		{0.7, 3},
		{0.71, 15},
		{0.99, 15},
		{1, 15},
		{-1, 1}, // clamped
		{2, 15}, // clamped
	}
	for _, c := range cases {
		got, ok := h.Quantile(c.q)
		if !ok || got != c.want {
			t.Errorf("Quantile(%g) = (%d, %v), want (%d, true)", c.q, got, ok, c.want)
		}
	}
}

// TestQuantileEdges pins the empty and overflow-only answers.
func TestQuantileEdges(t *testing.T) {
	if _, ok := (HistSnap{}).Quantile(0.5); ok {
		t.Error("empty histogram reported a quantile")
	}
	// A hop histogram whose tail ran past the last finite bucket: the
	// overflow observations have no finite bound.
	h := HistSnap{Count: 2, Overflow: 1, Buckets: []BucketSnap{{Le: 4, Count: 1}}}
	if got, ok := h.Quantile(0.5); !ok || got != 4 {
		t.Errorf("median of half-overflowed histogram = (%d, %v), want (4, true)", got, ok)
	}
	if got, ok := h.Quantile(1); !ok || got != math.MaxUint64 {
		t.Errorf("max of half-overflowed histogram = (%d, %v), want MaxUint64", got, ok)
	}
}

// TestHistSnapSub pins the before/after windowing the rolling windows
// lean on: subtracting a prior snapshot leaves exactly the
// observations made in between.
func TestHistSnapSub(t *testing.T) {
	reg := NewRegistry()
	h := reg.Pow2Hist("t_sub_ns", "test")
	h.Observe(0, 3)
	h.Observe(0, 100)
	before := snapOf(t, reg, "t_sub_ns")
	h.Observe(0, 3)
	h.Observe(0, 1000)
	h.Observe(0, 1000)
	delta := snapOf(t, reg, "t_sub_ns").Sub(before)
	if delta.Count != 3 {
		t.Fatalf("window count %d, want 3", delta.Count)
	}
	if delta.Sum != 2003 {
		t.Fatalf("window sum %d, want 2003", delta.Sum)
	}
	if got, ok := delta.Quantile(1); !ok || got < 1000 || got > 2047 {
		t.Fatalf("window max quantile (%d, %v), want the 1000s bucket bound", got, ok)
	}
	// The pre-window observations must not leak in: rank 1 of the
	// window (q ≤ 1/3) is the 3 observation's bucket, even though the
	// cumulative histogram holds a 100.
	if got, ok := delta.Quantile(0.33); !ok || got >= 100 {
		t.Fatalf("window p33 (%d, %v) includes pre-window observations", got, ok)
	}
}

// snapOf fetches one histogram snapshot by name.
func snapOf(t *testing.T, reg *Registry, name string) HistSnap {
	t.Helper()
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("histogram %q not in snapshot", name)
	return HistSnap{}
}
