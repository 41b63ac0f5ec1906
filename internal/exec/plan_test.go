package exec

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestPlanReuseAcrossRuns(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	sq := b.node("Square", nil, p.Out(0))
	plan, err := NewPlan(b.g, nil, []graph.Output{sq.Out(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1.0; i <= 3; i++ {
		ex, err := NewFromPlan(plan, Config{
			Feeds: map[string]*tensor.Tensor{p.Name(): tensor.Scalar(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ex.Run()
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
	plan, err := NewPlan(b.g, nil, []graph.Output{exit})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ex, err := NewFromPlan(plan, Config{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ex.Run()
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
	if _, err := NewPlan(b.g, []*graph.Node{n}, nil); err == nil {
		t.Fatal("expected out-of-partition error")
	}
	// Fetch outside the partition must fail.
	if _, err := NewPlan(b.g, []*graph.Node{a.Node}, []graph.Output{n.Out(0)}); err == nil {
		t.Fatal("expected fetch-outside error")
	}
}

func TestInlineControlPrimitivesCounterLoop(t *testing.T) {
	// Control primitives run inline on the dispatcher, two loop variables
	// wide at a window of 8.
	b := newTB(t)
	exit := buildCounterLoop(b, 50, 2, 8)
	ex, err := New(Config{Graph: b.g, Fetches: []graph.Output{exit}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out[0].T.ScalarValue() != 50 {
		t.Fatalf("got %v", out[0].T)
	}
}
