package exec

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// buildServingPlan is a six-kernel acyclic plan of serving shape —
// tanh(x·w1)·w2 over three Consts — whose single call never counts to
// sampleEvery: what it learns after its first call it learns because the
// pacing lives on the plan. It returns the plan and the Tanh's index.
func buildServingPlan(t *testing.T) (*Plan, int32) {
	t.Helper()
	b := newTB(t)
	x := b.constT(filled(0.01, 1, 16))
	w1 := b.constT(filled(-0.5, 16, 16))
	w2 := b.constT(filled(-0.1, 16, 4))
	tanh := b.node("Tanh", nil, b.node("MatMul", nil, x, w1).Out(0))
	y := b.node("MatMul", nil, tanh.Out(0), w2)
	plan := b.plan(PlanOptions{Fetches: []graph.Output{y.Out(0)}})
	if len(plan.infos) != 6 {
		t.Fatalf("serving plan has %d nodes, want 6, every one a kernel", len(plan.infos))
	}
	return plan, plan.planIdx[tanh.ID()]
}

// callPlan runs one step of the plan. It reports failure with Error, not
// Fatal, so that goroutines other than the test's may call it.
func callPlan(t testing.TB, plan *Plan) {
	if _, _, err := plan.Run(Binding{}); err != nil {
		t.Error(err)
	}
}

// TestCostFirstExecutionIsTimed: one call of a fresh plan leaves an estimate
// on every node that ran a kernel, and none was handed off to get it.
func TestCostFirstExecutionIsTimed(t *testing.T) {
	plan, _ := buildServingPlan(t)
	handed := metricHandoff.Value()
	callPlan(t, plan)
	for i := range plan.cost {
		if plan.cost[i].Load() <= 0 {
			t.Errorf("%s has no estimate after its first execution", plan.infos[i].node.Name())
		}
	}
	if metricHandoff.Value() != handed {
		t.Error("a first execution was handed off")
	}
}

// TestCostColdSampleRecovers: a node whose first sample read 100x too high
// (a cold cache, a page fault) — far enough to be handed off — is back under
// handoffCost within 1024 calls of the six-kernel plan. Each call times one
// kernel in about eleven, any of the six, and two lower samples are enough
// (the gap halves each time), so the expected number of calls is near 128;
// 1024 leaves a chance of under one in 10^5 of seeing fewer than two.
func TestCostColdSampleRecovers(t *testing.T) {
	plan, tanh := buildServingPlan(t)
	callPlan(t, plan)
	cold := max(100*plan.cost[tanh].Load(), 2*int64(handoffCost))
	plan.cost[tanh].Store(cold)
	calls := 0
	for plan.cost[tanh].Load() >= int64(handoffCost) {
		if calls++; calls > 1024 {
			t.Fatalf("estimate still %v after 1024 calls (seeded %v, constant %v)",
				time.Duration(plan.cost[tanh].Load()), time.Duration(cold), handoffCost)
		}
		callPlan(t, plan)
	}
	t.Logf("seeded %v, under %v after %d calls", time.Duration(cold), handoffCost, calls)
}

// TestCostOutlierDoesNotMoveDispatch: one sample 1000x a warm node's estimate
// (a preemption inside the timed kernel) raises the estimate by an eighth and
// no more, so the node's next 64 executions run where they ran before — here
// two independent cheap branches, none of which may be handed off.
func TestCostOutlierDoesNotMoveDispatch(t *testing.T) {
	b := newTB(t)
	x := vecConst(b, 16, 0.5)
	l, r := b.node("Tanh", nil, x), b.node("Sigmoid", nil, x)
	sum := b.node("Add", nil, l.Out(0), r.Out(0))
	plan := b.plan(PlanOptions{Fetches: []graph.Output{sum.Out(0)}})
	warm := int64(handoffCost) / 2
	for i := range plan.cost {
		plan.cost[i].Store(warm)
	}
	idx := plan.planIdx[l.ID()]
	plan.observe(idx, 1000*time.Duration(warm))
	if got := plan.cost[idx].Load(); got != warm+warm/8 {
		t.Fatalf("a 1000x sample moved the estimate %v to %v, want %v", time.Duration(warm), time.Duration(got), time.Duration(warm+warm/8))
	}
	handed := metricHandoff.Value()
	for i := 0; i < 64; i++ {
		callPlan(t, plan)
	}
	if d := metricHandoff.Value() - handed; d != 0 {
		t.Fatalf("after one outlier sample %d of the next 64 steps' kernels were handed off", d)
	}
}

// TestCostConcurrentCallers: eight goroutines calling one plan share its
// estimates and its pacing through atomics (the race job is the check) and
// leave every estimate set and sane.
func TestCostConcurrentCallers(t *testing.T) {
	plan, _ := buildServingPlan(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				callPlan(t, plan)
			}
		}()
	}
	wg.Wait()
	for i := range plan.cost {
		if c := time.Duration(plan.cost[i].Load()); c <= 0 || c > time.Second {
			t.Errorf("%s: estimate %v after 1600 concurrent calls", plan.infos[i].node.Name(), c)
		}
	}
	if u := plan.untilSample.Load(); u < 0 || u >= 3*sampleEvery/2 {
		t.Errorf("sample pacing left at %d, want within [0, %d)", u, 3*sampleEvery/2)
	}
}

// TestTwoChainsOverlapOffDispatcher is the parallel side of dispatch-by-cost:
// two independent chains of 128x128 MatMuls, each far dearer than a hand-off.
// Once the plan has estimates the dispatcher keeps one kernel and hands the
// other chain's off, so a traced step has spans on the dispatcher's stream and
// on the hand-off stream that overlap in time, and the fetch is bit-equal to a
// step with nothing handed off (a plan's first step: every kernel timed, on
// the dispatcher). No wall-clock ratio is asserted; on a loaded host a
// handed-off kernel may start too late to overlap the one kept kernel, so a
// few steps may be needed to see it.
func TestTwoChainsOverlapOffDispatcher(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// One P never runs the dispatcher and a handed-off kernel at once.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	b := newTB(t)
	fetches := []graph.Output{buildTwoChains(t, b.g, 128, 8)}
	run := func(plan *Plan, tr *trace.Tracer) *tensor.Tensor {
		out, _, err := plan.Run(Binding{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return out[0].T
	}
	plan := b.plan(PlanOptions{Fetches: fetches})
	handed := metricHandoff.Value()
	want := run(plan, nil)
	if metricHandoff.Value() != handed {
		t.Fatal("a first execution was handed off")
	}
	if got := run(plan, nil); !tensor.Equal(got, want) {
		t.Fatal("fetch differs from the all-dispatcher first step")
	}
	if metricHandoff.Value() == handed {
		t.Fatal("exec_dispatch_handoff_total did not move: 140 us kernels on two independent chains stayed on the dispatcher")
	}
	for attempt := 1; ; attempt++ {
		tr := trace.New()
		if got := run(plan, tr); !tensor.Equal(got, want) {
			t.Fatal("traced fetch differs from the all-dispatcher first step")
		}
		var overlap time.Duration
		for _, s := range tr.Streams() {
			if s != "cpu/inline" {
				overlap += tr.OverlapTime("cpu/inline", s)
			}
		}
		if overlap > 0 {
			t.Logf("attempt %d: dispatcher and hand-off spans overlap for %v over streams %v", attempt, overlap, tr.Streams())
			return
		}
		if attempt == 50 {
			t.Fatalf("no traced step in 50 had a dispatcher span overlapping a hand-off span (streams %v)", tr.Streams())
		}
	}
}
