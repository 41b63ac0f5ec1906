package exec

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The tests here target the riskiest corners of the dense-index/ring-buffer
// iteration state: dead-exit finalization, deferred NextIteration release
// through ring recycling, and iteration-state reuse.

// buildLoopInBranch nests a two-variable while loop in one branch of a
// conditional, returning the final Merge. The loop's frame only activates
// when the predicate is true; when false, its Enters run dead and the Exits
// must finalize as a single dead token each.
func buildLoopInBranch(b *tb, pred graph.Output, parallel int) *graph.Node {
	x := b.scalar(3)
	sw := b.node("Switch", nil, x, pred)

	frame := map[string]any{"frame_name": "ringw", "parallel_iterations": parallel}
	frameConst := map[string]any{"frame_name": "ringw", "parallel_iterations": parallel, "is_constant": true}
	enterI := b.node("Enter", frame, sw.Out(1))
	enterS := b.node("Enter", frame, sw.Out(1))
	limE := b.node("Enter", frameConst, b.scalar(8))
	oneE := b.node("Enter", frameConst, b.scalar(1))
	mI := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
	mS := b.node("Merge", nil, enterS.Out(0), enterS.Out(0))
	less := b.node("Less", nil, mI.Out(0), limE.Out(0))
	cond := b.node("LoopCond", nil, less.Out(0))
	swI := b.node("Switch", nil, mI.Out(0), cond.Out(0))
	swS := b.node("Switch", nil, mS.Out(0), cond.Out(0))
	addI := b.node("Add", nil, swI.Out(1), oneE.Out(0))
	addS := b.node("Add", nil, swS.Out(1), addI.Out(0))
	niI := b.node("NextIteration", nil, addI.Out(0))
	niS := b.node("NextIteration", nil, addS.Out(0))
	mI.ReplaceInput(1, niI.Out(0))
	mS.ReplaceInput(1, niS.Out(0))
	exitI := b.node("Exit", nil, swI.Out(0))
	exitS := b.node("Exit", nil, swS.Out(0))
	// Combine both exits so both dead-exit finalizations matter.
	sum := b.node("Add", nil, exitI.Out(0), exitS.Out(0))

	fOp := b.node("Neg", nil, sw.Out(0))
	return b.node("Merge", nil, sum.Out(0), fOp.Out(0))
}

func TestDeadExitFinalizationUnderRing(t *testing.T) {
	for _, par := range []int{1, 2, 32} {
		b := newTB(t)
		p := b.node("Placeholder", nil)
		out := buildLoopInBranch(b, p.Out(0), par)

		// Untaken branch: every loop Enter runs dead, the frame drains,
		// and each Exit finalizes exactly one dead token; the Merge must
		// resolve through the live false branch.
		got := b.runOK([]graph.Output{out.Out(0)}, map[string]*tensor.Tensor{
			p.Name(): tensor.ScalarBool(false),
		})
		if got[0].T.ScalarValue() != -3 {
			t.Fatalf("par=%d untaken: got %v, want -3", par, got[0].T)
		}

		// Taken branch: i runs 3->8; s accumulates i+1 per iteration:
		// s = 3 + (4+5+6+7+8) = 33; sum = 8 + 33 = 41.
		got = b.runOK([]graph.Output{out.Out(0)}, map[string]*tensor.Tensor{
			p.Name(): tensor.ScalarBool(true),
		})
		if got[0].T.ScalarValue() != 41 {
			t.Fatalf("par=%d taken: got %v, want 41", par, got[0].T)
		}
	}
}

// TestDeferredNextIterationRingRecycle drives a two-variable loop through a
// window-1 ring: every NextIteration delivery lands beyond the window, is
// deferred, and is released only when the previous iteration's recycled
// slot frees up — with the iteration state reused from the free list.
func TestDeferredNextIterationRingRecycle(t *testing.T) {
	b := newTB(t)
	frame := map[string]any{"frame_name": "w1", "parallel_iterations": 1}
	frameConst := map[string]any{"frame_name": "w1", "parallel_iterations": 1, "is_constant": true}
	enterI := b.node("Enter", frame, b.scalar(0))
	enterS := b.node("Enter", frame, b.scalar(0))
	limE := b.node("Enter", frameConst, b.scalar(40))
	oneE := b.node("Enter", frameConst, b.scalar(1))
	mI := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
	mS := b.node("Merge", nil, enterS.Out(0), enterS.Out(0))
	less := b.node("Less", nil, mI.Out(0), limE.Out(0))
	cond := b.node("LoopCond", nil, less.Out(0))
	swI := b.node("Switch", nil, mI.Out(0), cond.Out(0))
	swS := b.node("Switch", nil, mS.Out(0), cond.Out(0))
	addI := b.node("Add", nil, swI.Out(1), oneE.Out(0))
	addS := b.node("Add", nil, swS.Out(1), addI.Out(0))
	niI := b.node("NextIteration", nil, addI.Out(0))
	niS := b.node("NextIteration", nil, addS.Out(0))
	mI.ReplaceInput(1, niI.Out(0))
	mS.ReplaceInput(1, niS.Out(0))
	exitS := b.node("Exit", nil, swS.Out(0))

	ex := b.plan(PlanOptions{Fetches: []graph.Output{exitS.Out(0)}}).newExecutor(Binding{})
	out, err := ex.run()
	if err != nil {
		t.Fatal(err)
	}
	// s = sum of i+1 for i=0..39 = 820.
	if got := out[0].T.ScalarValue(); got != 820 {
		t.Fatalf("got %v, want 820", got)
	}
	// 40 iterations ran through a 1-slot ring: retired iteration shells
	// must have been recycled rather than reallocated.
	if len(ex.iterFree) == 0 {
		t.Fatal("expected retired iteration state on the executor free list")
	}
}

// TestRingStateIsolationAcrossIterations makes sure recycled per-node state
// (generation-reset) never leaks token values between iterations: each
// iteration's Merge must observe only its own NextIteration value.
func TestRingStateIsolationAcrossIterations(t *testing.T) {
	for _, par := range []int{1, 2, 3, 8} {
		b := newTB(t)
		exit := buildCounterLoop(b, 100, 1, par)
		out := b.runOK([]graph.Output{exit}, nil)
		if out[0].T.ScalarValue() != 100 {
			t.Fatalf("par=%d: got %v, want 100", par, out[0].T)
		}
	}
}

// TestEventsChannelSizedFromPlan checks the completion-channel heuristic:
// acyclic plans get one slot per node (each node executes exactly once),
// loop plans scale with the window, and huge plans are capped.
func TestEventsChannelSizedFromPlan(t *testing.T) {
	b := newTB(t)
	sq := b.node("Square", nil, b.scalar(2))
	if got, want := b.plan(PlanOptions{Fetches: []graph.Output{sq.Out(0)}}).eventsCap, b.g.NumNodes(); got != want {
		t.Fatalf("acyclic events buffer %d, want one per node = %d", got, want)
	}

	lb := newTB(t)
	exit := []graph.Output{buildCounterLoop(lb, 5, 1, 0)}
	if got, want := lb.plan(PlanOptions{Fetches: exit}).eventsCap, lb.g.NumNodes()*DefaultParallelIterations; got != want {
		t.Fatalf("loop events buffer %d, want nodes*window = %d", got, want)
	}
	// A declared window moves it.
	db := newTB(t)
	exit = []graph.Output{buildCounterLoop(db, 5, 1, 3)}
	if got, want := db.plan(PlanOptions{Fetches: exit}).eventsCap, db.g.NumNodes()*3; got != want {
		t.Fatalf("loop events buffer at a declared window of 3: %d, want %d", got, want)
	}
}

// TestOwnedBufferNeverAliasesFetch guards the ownership rule: a fetched
// output must never be recycled into the pool, even when its producer chain
// forwards buffers. The fetched value is read after a second run that would
// overwrite any wrongly recycled buffer.
func TestOwnedBufferNeverAliasesFetch(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	n1 := b.node("Neg", nil, p.Out(0))
	n2 := b.node("Neg", nil, n1.Out(0))
	n3 := b.node("Exp", nil, n2.Out(0))
	plan := b.plan(PlanOptions{Fetches: []graph.Output{n3.Out(0)}})
	feed := tensor.FromFloats([]float64{0, 1}, 2)
	out1, _, err := plan.Run(Binding{Feeder: MapFeeder{p.Name(): feed}})
	if err != nil {
		t.Fatal(err)
	}
	// A second run reuses the pool; it must not clobber out1.
	if _, _, err := plan.Run(Binding{Feeder: MapFeeder{p.Name(): tensor.FromFloats([]float64{5, 5}, 2)}}); err != nil {
		t.Fatal(err)
	}
	if out1[0].T.F[0] != 1 { // exp(0)
		t.Fatalf("fetched buffer corrupted by later run: %v", out1[0].T)
	}
	// And the feed must never be mutated by in-place forwarding.
	if feed.F[0] != 0 || feed.F[1] != 1 {
		t.Fatalf("feed mutated: %v", feed)
	}
}

func TestPlanRejectsUnknownFetchIndex(t *testing.T) {
	b := newTB(t)
	sq := b.node("Square", nil, b.scalar(2))
	if _, err := NewPlan(b.g, PlanOptions{Fetches: []graph.Output{{Node: sq, Index: 3}}}); err == nil ||
		!strings.Contains(err.Error(), "invalid fetch") {
		t.Fatalf("want invalid fetch error, got %v", err)
	}
}
