package dcf_test

import (
	"context"
	"testing"

	"repro/dcf"
)

// TestCallableCallAllocBudget pins the pre-compiled Call path's allocation
// budget. Graph verification (internal/verify) runs once when the plan
// compiles and is cached per graph version; if it — or anything else —
// ever leaks onto the per-step path, this count moves and the test names
// the regression long before a latency benchmark would. The budget also
// pins step tracing's off-state to zero overhead: Call never sets
// RunOptions.Trace, so a tracing hook that allocates when disabled shows
// up here as a budget break.
func TestCallableCallAllocBudget(t *testing.T) {
	// Measured 22: node execution itself allocates nothing, and a chain of
	// kernels makes no hand-off and no completion channel.
	const budget = 24

	sess, y, x := buildServingGraph(t)
	callable, err := sess.MakeCallable(dcf.CallableSpec{Feeds: []string{"x"}, Fetches: []dcf.Tensor{y}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := callable.Call(ctx, x); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := callable.Call(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("Callable.Call allocates %.1f/op, budget %d: something moved onto the per-step hot path", allocs, budget)
	}
}

// TestRunTraceOnDemand verifies the other half of the tracing contract:
// opting in with RunOptions.Trace returns a populated per-step timeline
// (one span per executed node) on that run's private RunMetadata, while
// an untraced run on the same session returns none.
func TestRunTraceOnDemand(t *testing.T) {
	sess, y, x := buildServingGraph(t)
	ctx := context.Background()

	_, md, err := sess.RunCtx(ctx, dcf.RunOptions{
		Feeds:   dcf.Feeds{"x": x},
		Fetches: []dcf.Tensor{y},
		Trace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if md.StepTrace == nil {
		t.Fatal("Trace: true returned nil RunMetadata.StepTrace")
	}
	if evs := md.StepTrace.Events(); len(evs) == 0 {
		t.Fatal("traced run recorded no spans")
	}

	_, md, err = sess.RunCtx(ctx, dcf.RunOptions{Feeds: dcf.Feeds{"x": x}, Fetches: []dcf.Tensor{y}})
	if err != nil {
		t.Fatal(err)
	}
	if md.StepTrace != nil {
		t.Fatal("untraced run returned a StepTrace")
	}
}
