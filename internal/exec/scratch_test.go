package exec

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// buildAffineLoop hand-builds the loop_dispatch graph — two loop variables,
// i = 0, acc = 1; while i < iters { i += 1; acc = acc*a + c } — in a frame
// whose Enters declare b.window, and returns both exits.
func buildAffineLoop(b *tb, iters float64) []graph.Output {
	frame := map[string]any{"frame_name": "affine", "parallel_iterations": b.window}
	frameConst := map[string]any{"frame_name": "affine", "parallel_iterations": b.window, "is_constant": true}
	enterI := b.node("Enter", frame, b.scalar(0))
	enterA := b.node("Enter", frame, b.scalar(1))
	lim := b.node("Enter", frameConst, b.scalar(iters))
	one := b.node("Enter", frameConst, b.scalar(1))
	a := b.node("Enter", frameConst, b.scalar(0.9997))
	c := b.node("Enter", frameConst, b.scalar(1.25))
	mI := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
	mA := b.node("Merge", nil, enterA.Out(0), enterA.Out(0))
	less := b.node("Less", nil, mI.Out(0), lim.Out(0))
	cond := b.node("LoopCond", nil, less.Out(0))
	swI := b.node("Switch", nil, mI.Out(0), cond.Out(0))
	swA := b.node("Switch", nil, mA.Out(0), cond.Out(0))
	addI := b.node("Add", nil, swI.Out(1), one.Out(0))
	mul := b.node("Mul", nil, swA.Out(1), a.Out(0))
	addA := b.node("Add", nil, mul.Out(0), c.Out(0))
	mI.ReplaceInput(1, b.node("NextIteration", nil, addI.Out(0)).Out(0))
	mA.ReplaceInput(1, b.node("NextIteration", nil, addA.Out(0)).Out(0))
	return []graph.Output{b.node("Exit", nil, swI.Out(0)).Out(0), b.node("Exit", nil, swA.Out(0)).Out(0)}
}

// raceBuild is set by race_test.go in a race build.
var raceBuild bool

// TestLoopIterationAllocBudget pins what one loop iteration takes from the
// heap: the same two-variable While at 200 and at 2200 iterations, the
// difference spread over the 2000 extra iterations. Node execution itself
// allocates nothing (output tokens, kernel context and result slice are
// scratch) and every buffer of the body goes back to the pool when its last
// reference is released — the counter and the predicate each have two
// consumers — so an iteration takes nothing: 0.00 objects measured, 0.03
// before routing nodes stopped being scheduled, 4 while fan-out sent a buffer
// to the collector, 48 before the scratch. At window 1 every NextIteration
// delivery is deferred, and a deferred bucket reuses the storage of the one
// released before it: 0.00 measured, 2 while each bucket allocated its own.
// A race build misses the pool (about half an object per iteration) and is
// held to 1 object at both windows.
func TestLoopIterationAllocBudget(t *testing.T) {
	for _, c := range []struct {
		window int // 0: the frame's default
		budget float64
	}{{0, 1.0}, {1, 0.05}} {
		perRun := func(iters float64) float64 {
			b := newTB(t)
			b.window = c.window
			plan := b.plan(PlanOptions{Fetches: buildAffineLoop(b, iters)})
			return testing.AllocsPerRun(5, func() {
				out, _, err := plan.Run(Binding{})
				if err != nil {
					t.Fatal(err)
				}
				if got := out[0].T.ScalarValue(); got != iters {
					t.Fatalf("count %v, want %v", got, iters)
				}
			})
		}
		if raceBuild {
			c.budget = 1.0
		}
		short, long := perRun(200), perRun(2200)
		perIter := (long - short) / 2000
		t.Logf("window %d: allocs: %.0f at 200 iterations, %.0f at 2200: %.2f per iteration", c.window, short, long, perIter)
		if perIter > c.budget {
			t.Errorf("window %d: a loop iteration allocates %.2f objects, budget %.2f: something on the node-execution path allocates again", c.window, perIter, c.budget)
		}
	}
}

// TestIterationsCounter: exec_iterations_total counts completed passes
// through a loop body — the iterations past a frame's 0th that
// advanceFrontier retires, each started by its predecessor's NextIteration —
// flushed once per Run.
func TestIterationsCounter(t *testing.T) {
	iters := metrics.Default().Counter("exec_iterations_total")
	b := newTB(t)
	fetches := buildAffineLoop(b, 5000)
	before := iters.Value()
	out := b.runOK(fetches, nil)
	if got := out[0].T.ScalarValue(); got != 5000 {
		t.Fatalf("count %v, want 5000", got)
	}
	// Iterations 0..5000 exist and retire; the 0th was started by Enter,
	// the other 5000 by a body pass each.
	if got := iters.Value() - before; got != 5000 {
		t.Fatalf("exec_iterations_total moved by %d over a 5000-iteration loop, want 5000", got)
	}
}

// The scratch-aliasing tests below build graphs in which a node's output
// tokens sit in the dispatcher's scratch while other nodes run, and check that
// every consumer still sees the right value. Each graph runs with its kernels
// on the dispatcher (fresh estimates) and with every kernel estimated dear
// (handed off, completions crossing in doneMsg).

// filled returns a [rows, cols] float tensor with element k = base + k.
func filled(base float64, rows, cols int) *tensor.Tensor {
	t := tensor.New(tensor.Float, rows, cols)
	for k := range t.F {
		t.F[k] = base + float64(k)
	}
	return t
}

// delayChain returns a node that finishes only after n further inline
// executions: consumers that take it as a control input run once the
// scratch has been reused that many times.
func delayChain(b *tb, n int) *graph.Node {
	cur := b.node("Neg", nil, b.scalar(1))
	for i := 1; i < n; i++ {
		cur = b.node("Neg", nil, cur.Out(0))
	}
	return cur
}

// runScratch runs one step of the graph and returns its fetches. With dear
// set the kernels are estimated far above handoffCost and the step must hand
// kernels off.
func runScratch(t *testing.T, b *tb, fetches []graph.Output, runner func(string) Runner, dear bool) []ops.Value {
	t.Helper()
	opts := PlanOptions{Fetches: fetches, Runner: runner}
	var out []ops.Value
	var err error
	if dear {
		out, err = runHandedOff(t, newDear(b, opts), Binding{})
	} else {
		out, _, err = b.plan(opts).Run(Binding{})
	}
	if err != nil {
		t.Fatalf("dear=%v: %v", dear, err)
	}
	return out
}

// scratchCols is the width of the scratch tests' 4-row inputs.
const scratchCols = 8

func TestScratchMultiOutputKernels(t *testing.T) {
	for _, dear := range []bool{false, true} {
		b := newTB(t)
		x := filled(1, 4, scratchCols)
		late := delayChain(b, 5)
		// Unpack: four outputs (beyond doneMsg's two inline slots), each
		// consumed only after the delay chain has run.
		un := b.node("Unpack", map[string]any{"num": 4}, b.constT(x))
		sum := b.node("AddN", nil, un.Out(0), un.Out(1), un.Out(2), un.Out(3))
		sum.AddControlInput(late)
		// Split: two outputs, subtracted.
		sp := b.node("Split", map[string]any{"num": 2, "axis": 0}, b.constT(x))
		diff := b.node("Sub", nil, sp.Out(1), sp.Out(0))
		diff.AddControlInput(late)
		out := runScratch(t, b, []graph.Output{sum.Out(0), diff.Out(0)}, nil, dear)
		const cols = scratchCols
		for j := 0; j < cols; j++ {
			want := x.F[j] + x.F[cols+j] + x.F[2*cols+j] + x.F[3*cols+j]
			if got := out[0].T.F[j]; got != want {
				t.Fatalf("dear=%v: Unpack sum[%d] = %v, want %v", dear, j, got, want)
			}
		}
		for k, got := range out[1].T.F {
			if want := x.F[2*cols+k] - x.F[k]; got != want {
				t.Fatalf("dear=%v: Split diff[%d] = %v, want %v", dear, k, got, want)
			}
		}
	}
}

func TestScratchTwoOutputStackOps(t *testing.T) {
	for _, dear := range []bool{false, true} {
		b := newTB(t)
		x := filled(3, 4, scratchCols)
		late := delayChain(b, 5)
		// StackPush returns its input value (ctx.In[1]) and a token through
		// ctx.Two; StackPop returns the popped value and a token. Both value outputs are consumed after the delay chain.
		st := b.node("Stack", nil)
		push := b.node("StackPush", nil, st.Out(0), b.constT(x), b.scalar(0))
		pop := b.node("StackPop", nil, st.Out(0), push.Out(1))
		neg := b.node("Neg", nil, push.Out(0))
		neg.AddControlInput(late)
		sum := b.node("Add", nil, pop.Out(0), pop.Out(0))
		sum.AddControlInput(late)
		out := runScratch(t, b, []graph.Output{neg.Out(0), sum.Out(0)}, nil, dear)
		for k := range x.F {
			if out[0].T.F[k] != -x.F[k] || out[1].T.F[k] != 2*x.F[k] {
				t.Fatalf("dear=%v elem %d: pushed %v popped-twice %v, want %v and %v",
					dear, k, out[0].T.F[k], out[1].T.F[k], -x.F[k], 2*x.F[k])
			}
		}
	}
}

func TestScratchSwitchBothOutputsConsumed(t *testing.T) {
	for _, dear := range []bool{false, true} {
		for _, pred := range []bool{true, false} {
			b := newTB(t)
			x := filled(2, 4, scratchCols)
			late := delayChain(b, 5)
			sw := b.node("Switch", nil, b.constT(x), b.constT(tensor.ScalarBool(pred)))
			// Each side has two consumers, so the live token fans out and
			// the dead one is delivered twice; all four run late.
			onTrue := b.node("Neg", nil, sw.Out(1))
			onTrue2 := b.node("Square", nil, sw.Out(1))
			onFalse := b.node("Abs", nil, sw.Out(0))
			onFalse2 := b.node("Square", nil, sw.Out(0))
			for _, n := range []*graph.Node{onTrue, onTrue2, onFalse, onFalse2} {
				n.AddControlInput(late)
			}
			m1 := b.node("Merge", nil, onTrue.Out(0), onFalse.Out(0))
			m2 := b.node("Merge", nil, onTrue2.Out(0), onFalse2.Out(0))
			out := runScratch(t, b, []graph.Output{m1.Out(0), m2.Out(0)}, nil, dear)
			for k, v := range x.F {
				want1 := v // Abs on the false side (inputs are positive)
				if pred {
					want1 = -v
				}
				if out[0].T.F[k] != want1 || out[1].T.F[k] != v*v {
					t.Fatalf("dear=%v pred=%v elem %d: got %v and %v, want %v and %v",
						dear, pred, k, out[0].T.F[k], out[1].T.F[k], want1, v*v)
				}
			}
		}
	}
}

// directRunner is a device runner that runs the kernel where it is called.
type directRunner struct{}

func (directRunner) RunKernel(node, op string, fn func()) { fn() }

func TestScratchKernelReturnsItsInput(t *testing.T) {
	onDev := func(dev string) Runner {
		if dev == "dev0" {
			return directRunner{}
		}
		return nil
	}
	for _, dear := range []bool{false, true} {
		b := newTB(t)
		x := filled(5, 4, scratchCols)
		late := delayChain(b, 5)
		// Identity with a device runner attached does run its kernel, which
		// returns ctx.In[0] through ctx.One; the context is reset right
		// after, and the value must survive in the token.
		id, err := b.g.AddNode(graph.NodeArgs{Op: "Identity", Inputs: []graph.Output{b.constT(x)}, Device: "dev0", NumOutputs: 1})
		if err != nil {
			t.Fatal(err)
		}
		neg := b.node("Neg", nil, id.Out(0))
		neg.AddControlInput(late)
		sq := b.node("Square", nil, id.Out(0))
		sq.AddControlInput(late)
		out := runScratch(t, b, []graph.Output{neg.Out(0), sq.Out(0), id.Out(0)}, onDev, dear)
		for k, v := range x.F {
			if out[0].T.F[k] != -v || out[1].T.F[k] != v*v || out[2].T.F[k] != v {
				t.Fatalf("dear=%v elem %d: got %v, %v, %v from input %v", dear, k, out[0].T.F[k], out[1].T.F[k], out[2].T.F[k], v)
			}
		}
	}
}
