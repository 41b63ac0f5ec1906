package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestPlanCacheReusedAcrossRuns asserts the fast path repeated steps take:
// two Runs with the same signature must share one executor Plan (and hence
// the dense node metadata built at plan time).
func TestPlanCacheReusedAcrossRuns(t *testing.T) {
	b := NewBuilder()
	x := b.Placeholder("x")
	y := b.Op("Square", nil, x)
	z := b.Neg(x)
	fetches := []graph.Output{y}

	s := NewSession(b)
	p1, err := s.planFor(fetches, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1.0; i <= 3; i++ {
		out, err := s.Run(map[string]*tensor.Tensor{"x": tensor.Scalar(i)}, fetches, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].ScalarValue() != i*i {
			t.Fatalf("run %v: got %v", i, out[0])
		}
	}
	p2, err := s.planFor(fetches, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeated Runs with one signature must reuse one cached Plan")
	}
	if len(s.plans) != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", len(s.plans))
	}

	// A different signature builds (and caches) a second plan.
	if _, err := s.planFor([]graph.Output{z}, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.plans) != 2 {
		t.Fatalf("plan cache holds %d entries, want 2", len(s.plans))
	}
}

// TestPlanCacheEvictsStaleGenerations asserts a graph mutation does not
// accrete dead plans: the cache drops the previous version's entries when
// the first post-mutation plan is built.
func TestPlanCacheEvictsStaleGenerations(t *testing.T) {
	b := NewBuilder()
	x := b.Const(tensor.Scalar(2))
	y := b.Op("Square", nil, x)
	z := b.Neg(x)
	s := NewSession(b)
	for _, f := range []graph.Output{y, z} {
		if _, err := s.planFor([]graph.Output{f}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.plans) != 2 {
		t.Fatalf("plan cache holds %d entries, want 2", len(s.plans))
	}
	w := b.Op("Square", nil, y) // mutate: bumps the graph version
	if _, err := s.planFor([]graph.Output{w}, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.plans) != 1 {
		t.Fatalf("stale generation not evicted: %d entries, want 1", len(s.plans))
	}
}

// TestPlanCacheInvalidatedByGraphGrowth asserts that adding nodes (e.g. a
// later Gradients call) does not serve a stale pruned plan.
func TestPlanCacheInvalidatedByGraphGrowth(t *testing.T) {
	b := NewBuilder()
	x := b.Const(tensor.Scalar(2))
	y := b.Op("Square", nil, x)
	s := NewSession(b)
	p1, err := s.planFor([]graph.Output{y}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Neg(x) // grow the graph
	p2, err := s.planFor([]graph.Output{y}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("graph growth must invalidate the cached plan signature")
	}
}

// TestPlanCacheInvalidatedByInPlaceRewrite asserts the satellite fix for
// the versioned cache key: an optimizer-style rewrite that redirects an
// edge WITHOUT changing the node count must not serve the stale plan (the
// old NumNodes()-based signature could not see it).
func TestPlanCacheInvalidatedByInPlaceRewrite(t *testing.T) {
	b := NewBuilder()
	a := b.Const(tensor.Scalar(3))
	c := b.Const(tensor.Scalar(5))
	sum := b.Add(a, a)
	s := NewSession(b)
	out, err := s.Run(nil, []graph.Output{sum}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarValue() != 6 {
		t.Fatalf("got %v want 6", out[0])
	}
	// Rewire Add's second input in place (what CSE/folding do); node
	// count is unchanged.
	before := b.G.NumNodes()
	sum.Node.ReplaceInput(1, c)
	if b.G.NumNodes() != before {
		t.Fatal("rewrite must not change the node count for this test to be meaningful")
	}
	out, err = s.Run(nil, []graph.Output{sum}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarValue() != 8 {
		t.Fatalf("stale plan served after in-place rewrite: got %v want 8", out[0])
	}
}
