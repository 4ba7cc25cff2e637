package obs

// Histogram quantiles.  The fixed-bucket histograms trade resolution
// for allocation-free observation, so a quantile is reported as the
// inclusive upper bound of the bucket the requested rank lands in:
// exact for hop histograms (unit buckets), a ≤ 2× upper bound for
// power-of-two latency histograms.  That is the resolution the windowed
// SLO gauges and `scg stats -stages` report quantiles at; the benchmark
// (bench/) takes its latency percentiles from raw per-request samples
// instead.

import "math"

// Quantile returns the smallest bucket upper bound whose cumulative
// count reaches q of the total (q clamped to [0, 1]).  Observations in
// a hop histogram's overflow bucket have no finite bound and report
// MaxUint64.  A histogram with no observations reports 0 and false.
func (h HistSnap) Quantile(q float64) (uint64, bool) {
	if h.Count == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The observation of rank ⌈q·count⌉ (1-based) decides the quantile;
	// ranks at or below zero mean the first observation.
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.Le, true
		}
	}
	return math.MaxUint64, true // overflow bucket of a hop histogram
}

// Sub returns the histogram delta h − prev, aligning buckets by
// upper bound: the distribution of the observations made between the
// prev snapshot and this one.  The registry is cumulative, so a
// rolling window (WindowRing) snapshots at its boundaries and
// subtracts.
func (h HistSnap) Sub(prev HistSnap) HistSnap {
	out := h
	out.Buckets = make([]BucketSnap, 0, len(h.Buckets))
	prevAt := make(map[uint64]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevAt[b.Le] = b.Count
	}
	for _, b := range h.Buckets {
		b.Count -= prevAt[b.Le]
		out.Buckets = append(out.Buckets, b)
	}
	out.Count = h.Count - prev.Count
	out.Sum = h.Sum - prev.Sum
	out.Overflow = h.Overflow - prev.Overflow
	return out
}
