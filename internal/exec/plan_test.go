package exec

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func TestPlanReuseAcrossRuns(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	sq := b.node("Square", nil, p.Out(0))
	plan := b.plan(PlanOptions{Fetches: []graph.Output{sq.Out(0)}})
	for i := 1.0; i <= 3; i++ {
		out, _, err := plan.Run(Binding{Feeder: MapFeeder{p.Name(): tensor.Scalar(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if out[0].T.ScalarValue() != i*i {
			t.Fatalf("run %v: got %v", i, out[0].T)
		}
	}
}

func TestPlanReuseWithLoops(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 25, 1, 4)
	plan := b.plan(PlanOptions{Fetches: []graph.Output{exit}})
	for i := 0; i < 3; i++ {
		out, _, err := plan.Run(Binding{})
		if err != nil {
			t.Fatal(err)
		}
		if out[0].T.ScalarValue() != 25 {
			t.Fatalf("reuse %d: got %v", i, out[0].T)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	b := newTB(t)
	a := b.scalar(1)
	n := b.node("Neg", nil, a)
	// Partition excluding the input must fail.
	if _, err := NewPlan(b.g, PlanOptions{Nodes: []*graph.Node{n}}); err == nil {
		t.Fatal("expected out-of-partition error")
	}
	// Fetch outside the partition must fail.
	if _, err := NewPlan(b.g, PlanOptions{Nodes: []*graph.Node{a.Node}, Fetches: []graph.Output{n.Out(0)}}); err == nil {
		t.Fatal("expected fetch-outside error")
	}
}

func TestInlineControlPrimitivesCounterLoop(t *testing.T) {
	// Control primitives run inline on the dispatcher, two loop variables
	// wide at a window of 8.
	b := newTB(t)
	exit := buildCounterLoop(b, 50, 2, 8)
	out := b.runOK([]graph.Output{exit}, nil)
	if out[0].T.ScalarValue() != 50 {
		t.Fatalf("got %v", out[0].T)
	}
}

// TestPlanResolvesDeviceBindingsOnce: the Runner and Mem providers are asked
// once per plan node, by NewPlan, and never by a step.
func TestPlanResolvesDeviceBindingsOnce(t *testing.T) {
	b := newTB(t)
	fetches := buildAffineLoop(b, 20)
	var runnerCalls, memCalls int
	plan := b.plan(PlanOptions{
		Fetches: fetches,
		Runner:  func(string) Runner { runnerCalls++; return nil },
		Mem:     func(string) ops.DeviceMem { memCalls++; return nil },
	})
	if want := b.g.NumNodes(); runnerCalls != want || memCalls != want {
		t.Fatalf("NewPlan asked for %d runners and %d memory systems over %d nodes", runnerCalls, memCalls, want)
	}
	for i := 0; i < 10; i++ {
		out, _, err := plan.Run(Binding{})
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].T.ScalarValue(); got != 20 {
			t.Fatalf("step %d: count %v, want 20", i, got)
		}
	}
	if want := b.g.NumNodes(); runnerCalls != want || memCalls != want {
		t.Fatalf("10 steps asked for %d more runners and %d more memory systems", runnerCalls-want, memCalls-want)
	}
}
