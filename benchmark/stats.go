package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by the nearest-rank
// rule on a sorted copy: the smallest value with at least p of the sample
// at or below it. Empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the midpoint median: the mean of the two central values for
// an even count (six segments are the common case here).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sample is one completed operation of a closed loop.
type sample struct {
	latMs float64
	ok    bool // returned, and the oracle accepted the answer
}

// segment is the per-segment summary the end-to-end metrics are medians of.
type segment struct {
	Seconds   float64 `json:"seconds"`
	Ops       int     `json:"ops"`
	PerSecond float64 `json:"per_second"` // work units per second
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
}

// summarizeSegment reduces one segment's samples. Throughput counts every
// completed operation (failures are charged to ok_under_limit_share, not
// hidden by dropping their time).
func summarizeSegment(samples []sample, seconds float64, unitsPerOp int) segment {
	lats := make([]float64, len(samples))
	for i, s := range samples {
		lats[i] = s.latMs
	}
	return segment{
		Seconds:   seconds,
		Ops:       len(samples),
		PerSecond: float64(len(samples)*unitsPerOp) / seconds,
		P50Ms:     percentile(lats, 0.50),
		P95Ms:     percentile(lats, 0.95),
	}
}

// segmentMedians folds the segments into the three timing metrics: each is
// the median over segments of that segment's own statistic, so one segment
// disturbed by a neighbour on the host moves nothing.
func segmentMedians(segs []segment) (perSecond, p50Ms, p95Ms float64) {
	ps, p50, p95 := make([]float64, len(segs)), make([]float64, len(segs)), make([]float64, len(segs))
	for i, s := range segs {
		ps[i], p50[i], p95[i] = s.PerSecond, s.P50Ms, s.P95Ms
	}
	return median(ps), median(p50), median(p95)
}

// relDiff is how far apart two runs are, as a share of the smaller value:
// the amount by which the worse run is worse, whichever way "better" points.
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
}

// withinBound reports whether two runs of the same code agree.
func withinBound(a, b, bound float64) bool { return relDiff(a, b) <= bound }
