package exec

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func TestSwitchRejectsNonBoolPredicate(t *testing.T) {
	b := newTB(t)
	x := b.scalar(1)
	pred := b.scalar(2) // float, not bool
	sw := b.node("Switch", nil, x, pred)
	_, err := b.run([]graph.Output{sw.Out(1)}, nil)
	if err == nil || !strings.Contains(err.Error(), "Switch") {
		t.Fatalf("want switch predicate error, got %v", err)
	}
}

func TestLoopInsideUntakenCondBranchNeverRuns(t *testing.T) {
	// A whole while-loop nested in a dead conditional branch: its frame
	// never activates; the cond's other branch supplies the Merge.
	b := newTB(t)
	p := b.node("Placeholder", nil)
	x := b.scalar(3)
	sw := b.node("Switch", nil, x, p.Out(0))

	// True branch: a loop seeded from sw.Out(1).
	frame := map[string]any{"frame_name": "w"}
	frameConst := map[string]any{"frame_name": "w", "is_constant": true}
	enterI := b.node("Enter", frame, sw.Out(1))
	limE := b.node("Enter", frameConst, b.scalar(5))
	oneE := b.node("Enter", frameConst, b.scalar(1))
	merge := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
	less := b.node("Less", nil, merge.Out(0), limE.Out(0))
	cond := b.node("LoopCond", nil, less.Out(0))
	swL := b.node("Switch", nil, merge.Out(0), cond.Out(0))
	add := b.node("Add", nil, swL.Out(1), oneE.Out(0))
	ni := b.node("NextIteration", nil, add.Out(0))
	merge.ReplaceInput(1, ni.Out(0))
	exit := b.node("Exit", nil, swL.Out(0))

	// False branch: just negate.
	fOp := b.node("Neg", nil, sw.Out(0))
	out := b.node("Merge", nil, exit.Out(0), fOp.Out(0))

	got := b.runOK([]graph.Output{out.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.ScalarBool(false),
	})
	if got[0].T.ScalarValue() != -3 {
		t.Fatalf("got %v, want -3 (false branch)", got[0].T)
	}
	// And when taken, the loop runs to 5.
	got = b.runOK([]graph.Output{out.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.ScalarBool(true),
	})
	if got[0].T.ScalarValue() != 5 {
		t.Fatalf("got %v, want 5 (loop ran)", got[0].T)
	}
}

func TestMergeAllDeadPropagates(t *testing.T) {
	// Both Merge inputs on untaken sides: the Merge itself must go dead
	// and its downstream consumer too (fetch of a live sibling works).
	b := newTB(t)
	p := b.node("Placeholder", nil)
	x := b.scalar(1)
	sw := b.node("Switch", nil, x, p.Out(0))
	// Two ops both on the true side; with p=false both are dead.
	t1 := b.node("Neg", nil, sw.Out(1))
	t2 := b.node("Square", nil, sw.Out(1))
	deadMerge := b.node("Merge", nil, t1.Out(0), t2.Out(0))
	after := b.node("Neg", nil, deadMerge.Out(0))
	live := b.node("Square", nil, sw.Out(0))
	_ = after
	got := b.runOK([]graph.Output{live.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.ScalarBool(false),
	})
	if got[0].T.ScalarValue() != 1 {
		t.Fatalf("got %v", got[0].T)
	}
	// Fetching through the dead merge must report deadness.
	_, err := b.run([]graph.Output{after.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.ScalarBool(false),
	})
	if err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("want dead fetch error, got %v", err)
	}
}

func TestStatefulOpsInsideLoopRunPerIteration(t *testing.T) {
	// An AssignAdd inside the loop body must execute once per iteration.
	b := newTB(t)
	frame := map[string]any{"frame_name": "w"}
	frameConst := map[string]any{"frame_name": "w", "is_constant": true}
	enterI := b.node("Enter", frame, b.scalar(0))
	limE := b.node("Enter", frameConst, b.scalar(6))
	oneE := b.node("Enter", frameConst, b.scalar(1))
	merge := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
	less := b.node("Less", nil, merge.Out(0), limE.Out(0))
	cond := b.node("LoopCond", nil, less.Out(0))
	sw := b.node("Switch", nil, merge.Out(0), cond.Out(0))
	bump := b.node("AssignAdd", map[string]any{"var": "hits"}, oneE.Out(0))
	bump.AddControlInput(sw) // fire on live iterations only
	add := b.node("Add", nil, sw.Out(1), oneE.Out(0))
	add.AddControlInput(bump)
	ni := b.node("NextIteration", nil, add.Out(0))
	merge.ReplaceInput(1, ni.Out(0))
	exit := b.node("Exit", nil, sw.Out(0))

	sess := ops.NewResources()
	// Pre-initialize the counter variable.
	sess.LookupOrCreate("var/hits", func() ops.Resource {
		v := ops.NewVariable("hits")
		v.Set(tensor.Scalar(0))
		return v
	})
	if _, _, err := b.plan(PlanOptions{Fetches: []graph.Output{exit.Out(0)}}).Run(Binding{SessionRes: sess}); err != nil {
		t.Fatal(err)
	}
	res, _ := sess.Lookup("var/hits")
	v, _ := res.(*ops.VariableRes).Value()
	// The control edge from Switch fires every iteration the Switch
	// executes (including the final, where outputs are part-dead but the
	// node runs); the body ran 6 live iterations + 1 exit evaluation.
	if got := v.ScalarValue(); got != 6 && got != 7 {
		t.Fatalf("stateful op ran %v times", got)
	}
}

func TestFrameTagsDistinguishIterations(t *testing.T) {
	f := newFrame("loop", 0, newFrame("root", -1, nil, 0, 1), 2, 8)
	if f.tag(3) != "/root:2/loop:3" {
		t.Fatalf("tag %q", f.tag(3))
	}
	k1 := RendezvousKey("edge", f.tag(3))
	k2 := RendezvousKey("edge", f.tag(4))
	if k1 == k2 {
		t.Fatal("iteration tags must differ")
	}
}
