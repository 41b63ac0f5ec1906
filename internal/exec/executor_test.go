package exec

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// tb is a tiny hand-construction helper for executor tests; the real
// builders live in internal/core and are tested separately.
type tb struct {
	t *testing.T
	g *graph.Graph
	// window is the parallel_iterations loopOf declares on its Enters
	// (0: none, so the frame runs at DefaultParallelIterations).
	window int
}

func newTB(t *testing.T) *tb { return &tb{t: t, g: graph.New()} }

func (b *tb) node(op string, attrs map[string]any, ins ...graph.Output) *graph.Node {
	b.t.Helper()
	arity, err := ops.OutputArity(op, attrs)
	if err != nil {
		b.t.Fatal(err)
	}
	n, err := b.g.AddNode(graph.NodeArgs{Op: op, Inputs: ins, Attrs: attrs, NumOutputs: arity})
	if err != nil {
		b.t.Fatal(err)
	}
	return n
}

func (b *tb) constT(v *tensor.Tensor) graph.Output {
	return b.node("Const", map[string]any{"value": v}).Out(0)
}

func (b *tb) scalar(v float64) graph.Output { return b.constT(tensor.Scalar(v)) }

// plan compiles the whole graph with opts (Fetches included).
func (b *tb) plan(opts PlanOptions) *Plan {
	b.t.Helper()
	p, err := NewPlan(b.g, opts)
	if err != nil {
		b.t.Fatal(err)
	}
	return p
}

// run compiles the whole graph for fetches and runs one step of the plan.
func (b *tb) run(fetches []graph.Output, feeds map[string]*tensor.Tensor) ([]ops.Value, error) {
	b.t.Helper()
	out, _, err := b.plan(PlanOptions{Fetches: fetches}).Run(Binding{Feeder: MapFeeder(feeds)})
	return out, err
}

// TestHook is an op only these tests register: it calls the func() error in
// its "hook" attr and, unless that fails, passes its input through. It is an
// ordinary kernel to the executor, so a test learns from it that a step is
// inside a kernel, and can cancel or fail the step from there.
func init() {
	ops.Register(&ops.OpDef{Name: "TestHook", NumOutputs: 1, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		if err := ctx.Attrs["hook"].(func() error)(); err != nil {
			return nil, err
		}
		return ctx.One(ctx.In[0]), nil
	}})
}

func (b *tb) hook(fn func() error, in graph.Output) *graph.Node {
	return b.node("TestHook", map[string]any{"hook": fn}, in)
}

// signalOnce returns a hook that closes the channel the first time its kernel
// runs.
func signalOnce() (func() error, <-chan struct{}) {
	var once sync.Once
	ch := make(chan struct{})
	return func() error { once.Do(func() { close(ch) }); return nil }, ch
}

func (b *tb) runOK(fetches []graph.Output, feeds map[string]*tensor.Tensor) []ops.Value {
	b.t.Helper()
	out, err := b.run(fetches, feeds)
	if err != nil {
		b.t.Fatal(err)
	}
	return out
}

func TestSimpleArithmetic(t *testing.T) {
	b := newTB(t)
	a := b.scalar(2)
	c := b.scalar(3)
	sum := b.node("Add", nil, a, c)
	sq := b.node("Square", nil, sum.Out(0))
	out := b.runOK([]graph.Output{sq.Out(0)}, nil)
	if got := out[0].T.ScalarValue(); got != 25 {
		t.Fatalf("got %v want 25", got)
	}
}

func TestPlaceholderFeed(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	neg := b.node("Neg", nil, p.Out(0))
	out := b.runOK([]graph.Output{neg.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.Scalar(7),
	})
	if out[0].T.ScalarValue() != -7 {
		t.Fatalf("got %v", out[0].T)
	}
	if _, err := b.run([]graph.Output{neg.Out(0)}, nil); err == nil {
		t.Fatal("expected unfed placeholder error")
	}
}

func TestKernelErrorPropagates(t *testing.T) {
	b := newTB(t)
	a := b.constT(tensor.Zeros(2, 3))
	c := b.constT(tensor.Zeros(2, 3))
	mm := b.node("MatMul", nil, a, c) // inner dims mismatch
	_, err := b.run([]graph.Output{mm.Out(0)}, nil)
	if err == nil || !strings.Contains(err.Error(), "MatMul") {
		t.Fatalf("want matmul error, got %v", err)
	}
}

// buildCond wires pred -> Switch guards for two consts, ops on each branch,
// and a Merge, following §4.2 by hand.
func buildCond(b *tb, pred graph.Output) (*graph.Node, *graph.Node, *graph.Node) {
	x := b.scalar(10)
	swX := b.node("Switch", nil, x, pred) // 0=false, 1=true
	trueOp := b.node("Neg", nil, swX.Out(1))
	falseOp := b.node("Square", nil, swX.Out(0))
	merge := b.node("Merge", nil, trueOp.Out(0), falseOp.Out(0))
	return merge, trueOp, falseOp
}

func TestCondTakesTrueBranch(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	merge, _, _ := buildCond(b, p.Out(0))
	out := b.runOK([]graph.Output{merge.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.ScalarBool(true),
	})
	if out[0].T.ScalarValue() != -10 {
		t.Fatalf("true branch: got %v", out[0].T)
	}
}

func TestCondTakesFalseBranch(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	merge, _, _ := buildCond(b, p.Out(0))
	out := b.runOK([]graph.Output{merge.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.ScalarBool(false),
	})
	if out[0].T.ScalarValue() != 100 {
		t.Fatalf("false branch: got %v", out[0].T)
	}
}

func TestFetchDeadBranchErrors(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	_, trueOp, _ := buildCond(b, p.Out(0))
	_, err := b.run([]graph.Output{trueOp.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.ScalarBool(false),
	})
	if err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("want dead fetch error, got %v", err)
	}
}

func TestDeadnessSkipsKernels(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	x := b.scalar(1)
	sw := b.node("Switch", nil, x, p.Out(0))
	// A chain on the true branch: three ops that should all be skipped
	// (executed as dead) when pred=false.
	n1 := b.node("Neg", nil, sw.Out(1))
	n2 := b.node("Neg", nil, n1.Out(0))
	n3 := b.node("Neg", nil, n2.Out(0))
	fOp := b.node("Square", nil, sw.Out(0))
	m := b.node("Merge", nil, n3.Out(0), fOp.Out(0))
	out := b.runOK([]graph.Output{m.Out(0)}, map[string]*tensor.Tensor{
		p.Name(): tensor.ScalarBool(false),
	})
	if out[0].T.ScalarValue() != 1 {
		t.Fatalf("got %v", out[0].T)
	}
}

// buildCounterLoop hand-builds: i = 0; while i < limit { i += step } and
// returns its exit. parallel sets the window.
func buildCounterLoop(b *tb, limit, step float64, parallel int) graph.Output {
	return buildCounterLoopBody(b, limit, step, parallel, nil)
}

// buildCounterLoopBody is buildCounterLoop with more in the body: the
// incremented counter reaches NextIteration through body (nil: directly),
// which may add nodes to the frame; constant brings a loop invariant into it.
func buildCounterLoopBody(b *tb, limit, step float64, parallel int,
	body func(next graph.Output, constant func(graph.Output) graph.Output) graph.Output) graph.Output {
	frame := map[string]any{"frame_name": "w", "parallel_iterations": parallel}
	frameConst := map[string]any{"frame_name": "w", "parallel_iterations": parallel, "is_constant": true}
	constant := func(v graph.Output) graph.Output { return b.node("Enter", frameConst, v).Out(0) }

	i0 := b.scalar(0)
	enterI := b.node("Enter", frame, i0)
	limEnter, stepEnter := constant(b.scalar(limit)), constant(b.scalar(step))

	merge := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
	less := b.node("Less", nil, merge.Out(0), limEnter)
	cond := b.node("LoopCond", nil, less.Out(0))
	sw := b.node("Switch", nil, merge.Out(0), cond.Out(0))
	next := b.node("Add", nil, sw.Out(1), stepEnter).Out(0)
	if body != nil {
		next = body(next, constant)
	}
	ni := b.node("NextIteration", nil, next)
	merge.ReplaceInput(1, ni.Out(0))
	exit := b.node("Exit", nil, sw.Out(0))
	return exit.Out(0)
}

func TestWhileLoopCounter(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 10, 1, 0)
	out := b.runOK([]graph.Output{exit}, nil)
	if out[0].T.ScalarValue() != 10 {
		t.Fatalf("got %v want 10", out[0].T)
	}
}

func TestWhileLoopZeroIterations(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, -5, 1, 0)
	out := b.runOK([]graph.Output{exit}, nil)
	if out[0].T.ScalarValue() != 0 {
		t.Fatalf("got %v want 0 (loop body must not run)", out[0].T)
	}
}

func TestWhileLoopParallelWindows(t *testing.T) {
	for _, par := range []int{1, 2, 8, 32} {
		b := newTB(t)
		exit := buildCounterLoop(b, 100, 1, par)
		out := b.runOK([]graph.Output{exit}, nil)
		if out[0].T.ScalarValue() != 100 {
			t.Fatalf("parallel=%d: got %v want 100", par, out[0].T)
		}
	}
}

func TestTwoLoopVariables(t *testing.T) {
	// i = 0; s = 0; while i < 5 { i += 1; s += i_old + 1 } => s = 15.
	b := newTB(t)
	frame := map[string]any{"frame_name": "w2"}
	frameConst := map[string]any{"frame_name": "w2", "is_constant": true}

	enterI := b.node("Enter", frame, b.scalar(0))
	enterS := b.node("Enter", frame, b.scalar(0))
	limE := b.node("Enter", frameConst, b.scalar(5))
	oneE := b.node("Enter", frameConst, b.scalar(1))

	mergeI := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
	mergeS := b.node("Merge", nil, enterS.Out(0), enterS.Out(0))
	less := b.node("Less", nil, mergeI.Out(0), limE.Out(0))
	cond := b.node("LoopCond", nil, less.Out(0))
	swI := b.node("Switch", nil, mergeI.Out(0), cond.Out(0))
	swS := b.node("Switch", nil, mergeS.Out(0), cond.Out(0))
	addI := b.node("Add", nil, swI.Out(1), oneE.Out(0))
	addS := b.node("Add", nil, swS.Out(1), addI.Out(0))
	niI := b.node("NextIteration", nil, addI.Out(0))
	niS := b.node("NextIteration", nil, addS.Out(0))
	mergeI.ReplaceInput(1, niI.Out(0))
	mergeS.ReplaceInput(1, niS.Out(0))
	exitS := b.node("Exit", nil, swS.Out(0))

	out := b.runOK([]graph.Output{exitS.Out(0)}, nil)
	if out[0].T.ScalarValue() != 15 {
		t.Fatalf("got %v want 15", out[0].T)
	}
}

func TestNestedLoops(t *testing.T) {
	// outer: i=0, s=0; while i<3 { inner: j=0,t=s; while j<4 {j++; t++};
	// s = t; i++ } => s = 12.
	b := newTB(t)
	of := map[string]any{"frame_name": "outer"}
	ofc := map[string]any{"frame_name": "outer", "is_constant": true}
	inf := map[string]any{"frame_name": "inner"}
	infc := map[string]any{"frame_name": "inner", "is_constant": true}

	enterI := b.node("Enter", of, b.scalar(0))
	enterS := b.node("Enter", of, b.scalar(0))
	lim3 := b.node("Enter", ofc, b.scalar(3))
	one := b.node("Enter", ofc, b.scalar(1))
	lim4outer := b.node("Enter", ofc, b.scalar(4))

	mI := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
	mS := b.node("Merge", nil, enterS.Out(0), enterS.Out(0))
	less := b.node("Less", nil, mI.Out(0), lim3.Out(0))
	cond := b.node("LoopCond", nil, less.Out(0))
	swI := b.node("Switch", nil, mI.Out(0), cond.Out(0))
	swS := b.node("Switch", nil, mS.Out(0), cond.Out(0))

	// Inner loop, inside the outer body: j from 0, t from s.
	enterJ := b.node("Enter", inf, b.scalar(0)) // constant 0 is in root; Enter executes in outer frame? No: its input is root const.
	_ = enterJ
	// NOTE: a well-formed nested loop must Enter inner-loop values from
	// the outer body. Start j at 0 by entering a loop-constant zero that
	// was itself entered into the outer frame.
	zeroOuter := b.node("Enter", ofc, b.scalar(0))
	enterJ2 := b.node("Enter", inf, zeroOuter.Out(0))
	enterT := b.node("Enter", inf, swS.Out(1))
	lim4 := b.node("Enter", infc, lim4outer.Out(0))
	oneIn := b.node("Enter", infc, one.Out(0))

	mJ := b.node("Merge", nil, enterJ2.Out(0), enterJ2.Out(0))
	mT := b.node("Merge", nil, enterT.Out(0), enterT.Out(0))
	lessIn := b.node("Less", nil, mJ.Out(0), lim4.Out(0))
	condIn := b.node("LoopCond", nil, lessIn.Out(0))
	swJ := b.node("Switch", nil, mJ.Out(0), condIn.Out(0))
	swT := b.node("Switch", nil, mT.Out(0), condIn.Out(0))
	addJ := b.node("Add", nil, swJ.Out(1), oneIn.Out(0))
	addT := b.node("Add", nil, swT.Out(1), oneIn.Out(0))
	niJ := b.node("NextIteration", nil, addJ.Out(0))
	niT := b.node("NextIteration", nil, addT.Out(0))
	mJ.ReplaceInput(1, niJ.Out(0))
	mT.ReplaceInput(1, niT.Out(0))
	exitT := b.node("Exit", nil, swT.Out(0)) // delivers into outer body

	addI := b.node("Add", nil, swI.Out(1), one.Out(0))
	niI := b.node("NextIteration", nil, addI.Out(0))
	niS := b.node("NextIteration", nil, exitT.Out(0))
	mI.ReplaceInput(1, niI.Out(0))
	mS.ReplaceInput(1, niS.Out(0))
	exitS := b.node("Exit", nil, swS.Out(0))

	out := b.runOK([]graph.Output{exitS.Out(0)}, nil)
	if out[0].T.ScalarValue() != 12 {
		t.Fatalf("got %v want 12", out[0].T)
	}
}

func TestControlDependencyOrdersStatefulOps(t *testing.T) {
	// Assign var, then (control-dependent) read it.
	b := newTB(t)
	v := b.scalar(41)
	assign := b.node("Assign", map[string]any{"var": "x"}, v)
	read := b.node("VarRead", map[string]any{"var": "x"})
	read.AddControlInput(assign)
	inc := b.node("Add", nil, read.Out(0), b.scalar(1))
	out := b.runOK([]graph.Output{inc.Out(0)}, nil)
	if out[0].T.ScalarValue() != 42 {
		t.Fatalf("got %v", out[0].T)
	}
}

func TestLoopConstantDeliveredEveryIteration(t *testing.T) {
	// The loop adds a captured constant each iteration; if constants were
	// only delivered to iteration 0 the loop would hang or err.
	b := newTB(t)
	exit := buildCounterLoop(b, 50, 2.5, 4)
	out := b.runOK([]graph.Output{exit}, nil)
	if out[0].T.ScalarValue() != 50 {
		t.Fatalf("got %v want 50", out[0].T)
	}
}

func TestKernelCountsReflectDeadSkips(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil)
	m, _, _ := buildCond(b, p.Out(0))
	_, executed, err := b.plan(PlanOptions{Fetches: []graph.Output{m.Out(0)}}).Run(Binding{
		Feeder: MapFeeder{p.Name(): tensor.ScalarBool(true)}})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes: placeholder, const, switch, neg, square(dead), merge = 6
	// executions (Run counts scheduled node executions, dead skips
	// included, not kernels).
	if executed != 6 {
		t.Fatalf("executions = %d, want 6", executed)
	}
}

func TestFetchUnreachableErrors(t *testing.T) {
	b := newTB(t)
	p := b.node("Placeholder", nil) // never fed, never reached
	a := b.scalar(1)
	// Fetch p while only feeding nothing: p is a source (no inputs) so it
	// runs and errors on missing feed; instead fetch an op depending on
	// a value that never arrives: build a Merge with only dead inputs...
	// Simplest: fetch output of a node whose input chain includes an
	// unfed placeholder -> error from the placeholder kernel.
	add := b.node("Add", nil, p.Out(0), a)
	_, err := b.run([]graph.Output{add.Out(0)}, nil)
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestRandomOpsUseSeededRNG(t *testing.T) {
	b := newTB(t)
	r := b.node("RandomUniform", map[string]any{"shape": []int{4}})
	plan := b.plan(PlanOptions{Fetches: []graph.Output{r.Out(0)}})
	out1, _, err := plan.Run(Binding{RNG: tensor.NewRNG(9)})
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := plan.Run(Binding{RNG: tensor.NewRNG(9)})
	if err != nil {
		t.Fatal(err)
	}
	if !equal(out1[0].T, out2[0].T) {
		t.Fatal("same seed should reproduce")
	}
}

func TestManyIterationsStress(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 2000, 1, 32)
	out := b.runOK([]graph.Output{exit}, nil)
	if out[0].T.ScalarValue() != 2000 {
		t.Fatalf("got %v", out[0].T)
	}
}
