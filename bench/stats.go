package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (position q·(n−1) of the sorted values).  xs is not
// modified; an empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is one metric over the reps of a run.  Value, the reported
// value, is the median of the per-rep values and P25 and P75 spread
// them; N counts the samples the value rests on.
type summary struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	return summary{
		Unit:   unit,
		Value:  median(values),
		P25:    quantile(values, 0.25),
		P75:    quantile(values, 0.75),
		N:      len(values),
		Values: values,
	}
}

// nsToMs converts nanoseconds to milliseconds.
func nsToMs(ns float64) float64 { return ns / 1e6 }
