package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.10, 1}, {0.50, 5}, {0.51, 6}, {0.95, 10}, {0.90, 9}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianEvenAndOdd(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2, 6, 5}); got != 3.5 {
		t.Errorf("six-value median = %v, want 3.5", got)
	}
}

func TestSummarizeSegment(t *testing.T) {
	samples := make([]sample, 200)
	for i := range samples {
		samples[i] = sample{latMs: float64(i + 1), ok: true} // 1..200 ms
	}
	s := summarizeSegment(samples, 4, 16)
	if s.Ops != 200 || s.PerSecond != 800 || s.P50Ms != 100 || s.P95Ms != 190 {
		t.Errorf("got %+v, want 200 ops, 800/s, p50 100, p95 190", s)
	}
}

// One segment disturbed by a neighbour must not move the metrics.
func TestSegmentMediansIgnoreOneBadSegment(t *testing.T) {
	segs := []segment{
		{PerSecond: 100, P50Ms: 10, P95Ms: 14}, {PerSecond: 101, P50Ms: 10.1, P95Ms: 14.2},
		{PerSecond: 99, P50Ms: 9.9, P95Ms: 13.8}, {PerSecond: 100, P50Ms: 10, P95Ms: 14},
		{PerSecond: 102, P50Ms: 9.8, P95Ms: 14.1}, {PerSecond: 98, P50Ms: 10.2, P95Ms: 13.9},
	}
	ps, p50, p95 := segmentMedians(segs)
	segs[2] = segment{PerSecond: 40, P50Ms: 25, P95Ms: 90}
	ps2, p502, p952 := segmentMedians(segs)
	for _, d := range []float64{ps2/ps - 1, p502/p50 - 1, p952/p95 - 1} {
		if math.Abs(d) > 0.01 {
			t.Errorf("a single bad segment moved a median by %.3f", d)
		}
	}
}

func TestRelDiffAndBounds(t *testing.T) {
	if got := relDiff(100, 92); math.Abs(got-8.0/92) > 1e-12 {
		t.Errorf("relDiff(100, 92) = %v, want 8/92", got)
	}
	if relDiff(92, 100) != relDiff(100, 92) {
		t.Error("relDiff must not depend on which run came first")
	}
	if !withinBound(100, 107, 0.08) || !withinBound(107, 100, 0.08) {
		t.Error("7% apart is within an 8% bound, either way round")
	}
	if withinBound(100, 110, 0.08) || withinBound(110, 100, 0.08) {
		t.Error("10% apart exceeds an 8% bound, either way round")
	}
}

func TestOkUnderLimitShare(t *testing.T) {
	c := counts{Attempted: 1000, OK: 990, Failed: 10, OverLimit: 40}
	if got := c.okUnderLimitShare(); got != 0.95 {
		t.Errorf("share = %v, want 0.95 (failures and slow answers both miss)", got)
	}
}

func TestProfileStep(t *testing.T) {
	// Two flows overlapping 10–30 and 20–50 cover 40 of a 100 ns step; a
	// 25 ns MatMul is the only kernel; Merge is the executor's own.
	p := profileStep([]progSpan{
		{Op: "Send", StartNs: 10, EndNs: 12, Flow: "a", IsSend: true},
		{Op: "Recv", StartNs: 0, EndNs: 30, Flow: "a"},
		{Op: "Send", StartNs: 20, EndNs: 22, Flow: "b", IsSend: true},
		{Op: "Recv", StartNs: 5, EndNs: 50, Flow: "b"},
		{Op: "MatMul", StartNs: 50, EndNs: 75},
		{Op: "Merge", StartNs: 75, EndNs: 100},
	})
	if p.Nodes != 6 || p.WallNs != 100 || p.KernelNs != 25 || p.WireNs != 40 {
		t.Errorf("got %+v, want 6 nodes, wall 100, kernel 25, wire 40", p)
	}
}
