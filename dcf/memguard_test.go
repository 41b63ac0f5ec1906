package dcf_test

// Guard tests for the static peak-memory bound (internal/verify
// EstimateMemory): the executor's observed tensor-pool high-water mark
// must never exceed the verify-time bound on the representative
// while-loop, dynamic-RNN, and mixture-of-experts graphs. The pool gauge
// is process-global, so these tests reset it around each measured step
// and must not run in parallel with each other.

import (
	"context"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/dcf"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/verify"
)

// measurePeak runs step repeatedly with the pool water reset before each
// run and returns the largest single-step payload high-water observed.
func measurePeak(t *testing.T, steps int, step func()) int64 {
	t.Helper()
	var peak int64
	for i := 0; i < steps; i++ {
		tensor.ResetPoolWater()
		step()
		if p := tensor.PoolPeakBytes(); p > peak {
			peak = p
		}
	}
	return peak
}

// boundFor estimates the graph and fails the test on verifier findings —
// the guard is only meaningful over graphs that verify clean.
func boundFor(t *testing.T, g *dcf.Graph) *verify.MemEstimate {
	t.Helper()
	est, ds := verify.EstimateMemory(g.Builder().G, verify.Options{Complete: true})
	if err := ds.Err(); err != nil {
		t.Fatalf("graph does not verify: %v", err)
	}
	if est == nil {
		t.Fatal("no estimate")
	}
	return est
}

// boundTerms are a MemEstimate's coefficients, pinned per graph so that a
// change to shape inference or liveness cannot move a bound silently.
type boundTerms struct{ Fixed, PerRow, PerIter, PerRowIter, Step int64 }

func wantBound(t *testing.T, est *verify.MemEstimate, want boundTerms) {
	t.Helper()
	got := boundTerms{est.FixedBytes, est.PerRowBytes, est.PerIterBytes, est.PerRowIterBytes, est.StepBytes}
	if got != want {
		t.Fatalf("bound terms %+v, want %+v (%s)", got, want, est)
	}
}

func TestMemoryBoundWhileLoop(t *testing.T) {
	g := dcf.NewGraph()
	w := g.Variable("w", dcf.RandNormal(1, 0, 0.1, 4, 4))
	x := g.PlaceholderTyped("x", dcf.Float, 4, 4)
	outs := g.While(
		[]dcf.Tensor{g.Scalar(0), x},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(8)) },
		func(v []dcf.Tensor) []dcf.Tensor {
			return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].MatMul(w)}
		},
		dcf.WhileOpts{},
	)
	loss := outs[1].Square().ReduceSum()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}

	est := boundFor(t, g)
	wantBound(t, est, boundTerms{Fixed: 31816})

	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	feeds := dcf.Feeds{"x": dcf.RandNormal(2, 0, 1, 4, 4)}
	observed := measurePeak(t, 3, func() {
		if _, err := sess.Run1(feeds, loss); err != nil {
			t.Fatal(err)
		}
	})
	bound := resolve(est, 0, 8)
	t.Logf("while-loop: bound %d B, observed pool peak %d B", bound, observed)
	if observed > bound {
		t.Fatalf("observed pool high-water %d B exceeds static bound %d B", observed, bound)
	}
}

func TestMemoryBoundDynamicRNN(t *testing.T) {
	const steps, batch, in, hidden = 6, 4, 8, 16
	g := dcf.NewGraph()
	cell := nn.NewLSTMCell(g, "lstm", in, hidden, 1)
	x := g.PlaceholderTyped("x", dcf.Float, steps, batch, in)
	h0 := g.Const(dcf.Zeros(batch, hidden))
	c0 := g.Const(dcf.Zeros(batch, hidden))
	r := nn.DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
	loss := r.Outputs.Square().ReduceSum()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}

	// Static shapes bound finitely; Step is the tensor arrays' storage.
	est := boundFor(t, g)
	wantBound(t, est, boundTerms{Fixed: 1239160, Step: 4608})

	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	feeds := dcf.Feeds{"x": dcf.RandNormal(3, 0, 1, steps, batch, in)}
	observed := measurePeak(t, 3, func() {
		if _, err := sess.Run1(feeds, loss); err != nil {
			t.Fatal(err)
		}
	})
	bound := resolve(est, 0, steps)
	t.Logf("rnn: bound %d B, observed pool peak %d B", bound, observed)
	if observed > bound {
		t.Fatalf("observed pool high-water %d B exceeds static bound %d B", observed, bound)
	}
}

func TestMemoryBoundMoETrainStep(t *testing.T) {
	const in, out, experts, batch = 6, 3, 4, 8
	g := dcf.NewGraph()
	moe := nn.NewMoE(g, "moe", in, out, experts, 11)
	x := g.PlaceholderTyped("x", dcf.Float, batch, in)
	target := g.PlaceholderTyped("y", dcf.Float, batch, out)
	pred := moe.Apply(x)
	loss := nn.MSE(pred, target)
	step, err := nn.SGDStep(g, loss, &moe.Vars, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}

	est := boundFor(t, g)
	wantBound(t, est, boundTerms{Fixed: 22644, PerRow: 992})

	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	feeds := dcf.Feeds{
		"x": dcf.RandNormal(3, 0, 1, batch, in),
		"y": dcf.RandNormal(4, 0, 0.5, batch, out),
	}
	ctx := context.Background()
	observed := measurePeak(t, 5, func() {
		if _, _, err := sess.RunCtx(ctx, dcf.RunOptions{
			Feeds:   feeds,
			Fetches: []dcf.Tensor{loss},
			Targets: []dcf.Op{step},
		}); err != nil {
			t.Fatal(err)
		}
	})
	// The MoE step has no while loop; iters only matters if inference
	// left a symbolic per-iteration term (it should not).
	bound := resolve(est, batch, 1)
	t.Logf("moe: bound %d B (%s), observed pool peak %d B", bound, est, observed)
	if observed > bound {
		t.Fatalf("observed pool high-water %d B exceeds static bound %d B", observed, bound)
	}
}

// rnnTrainer is the repo benchmark's rnn_train step — SGD on a dynamic LSTM,
// batch 16, in 32, units 64, T 12.
type rnnTrainer struct {
	step   func() float64       // one step through a pre-compiled Callable; the loss
	traced func() *trace.Tracer // one step with a span recorded per node execution
	// The graph's node count once the forward model is built, and once
	// Gradients and the SGD updates are added to it.
	forwardNodes, trainNodes int
}

func rnnTrainStep(tb testing.TB) rnnTrainer {
	tb.Helper()
	const steps, batch, in, units = 12, 16, 32, 64
	g := dcf.NewGraph()
	cell := nn.NewLSTMCell(g, "lstm", in, units, 7)
	x := g.Placeholder("x")
	y := g.Placeholder("y")
	h0 := g.Const(dcf.Zeros(batch, units))
	c0 := g.Const(dcf.Zeros(batch, units))
	r := nn.DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
	loss := nn.MSE(r.FinalH, y)
	forwardNodes := g.Builder().G.NumNodes()
	step, err := nn.SGDStep(g, loss, &cell.Vars, 0.05, false)
	if err != nil {
		tb.Fatal(err)
	}
	if err := g.Err(); err != nil {
		tb.Fatal(err)
	}
	trainNodes := g.Builder().G.NumNodes()
	sess := dcf.NewSession(g)
	tb.Cleanup(sess.Close)
	if err := sess.InitVariables(); err != nil {
		tb.Fatal(err)
	}
	call, err := sess.MakeCallable(dcf.CallableSpec{
		Feeds: []string{"x", "y"}, Fetches: []dcf.Tensor{loss}, Targets: []dcf.Op{step},
	})
	if err != nil {
		tb.Fatal(err)
	}
	xv := dcf.RandNormal(1, 0, 1, steps, batch, in)
	yv := dcf.RandNormal(2, 0, 0.3, batch, units)
	ctx := context.Background()
	return rnnTrainer{
		step: func() float64 {
			out, err := call.Call(ctx, xv, yv)
			if err != nil {
				tb.Fatal(err)
			}
			return out[0].ScalarValue()
		},
		traced: func() *trace.Tracer {
			_, md, err := sess.RunCtx(ctx, dcf.RunOptions{
				Feeds: dcf.Feeds{"x": xv, "y": yv}, Fetches: []dcf.Tensor{loss}, Targets: []dcf.Op{step}, Trace: true,
			})
			if err != nil {
				tb.Fatal(err)
			}
			return md.StepTrace
		},
		forwardNodes: forwardNodes,
		trainNodes:   trainNodes,
	}
}

// rnnTrainLosses are the first 20 losses of rnnTrainStep as the commit before
// the kernel rewrite (5fe4eed) computed them. The rewrite changed how
// kernels find their operands and nothing about what they compute — same
// arithmetic on the same operands in the same order, through a backward pass
// whose MatMuls now read transposed operands in place — so the sequence is
// the same to the last bit wherever the compiler fuses no multiply-add (the
// default amd64 build); elsewhere it agrees to rounding.
var rnnTrainLosses = [20]uint64{
	0x3fbd7de3fcfd0baa, 0x3fbd75eb78957cec, 0x3fbd6df653110d42, 0x3fbd66048b7fb5cf,
	0x3fbd5e1620f14d21, 0x3fbd562b1275875b, 0x3fbd4e435f1bf62d, 0x3fbd465f05f4096f,
	0x3fbd3e7e060d0ef1, 0x3fbd36a05e7632fc, 0x3fbd2ec60e3e7fec, 0x3fbd26ef1474dea2,
	0x3fbd1f1b7028166a, 0x3fbd174b2066cc9d, 0x3fbd0f7e243f8517, 0x3fbd07b47ac0a1ad,
	0x3fbcffee22f86231, 0x3fbcf82b1bf4e43b, 0x3fbcf06b64c422f7, 0x3fbce8aefc73f6d3,
}

func TestRNNTrainLossesBitIdenticalToRecorded(t *testing.T) {
	rnn := rnnTrainStep(t)
	for i, bits := range rnnTrainLosses {
		got, want := rnn.step(), math.Float64frombits(bits)
		switch {
		case runtime.GOARCH == "amd64" && math.Float64bits(got) != bits:
			t.Fatalf("step %d: loss %v (%#x), recorded %v (%#x)", i, got, math.Float64bits(got), want, bits)
		case math.Abs(got-want) > 1e-12*want:
			t.Fatalf("step %d: loss %v, recorded %v", i, got, want)
		}
	}
}

// TestPoolGaugeNeverSinks: the live-bytes gauge counts up what Alloc hands
// out and down what Recycle takes back, so over a step it moves by exactly
// the pool buffers the step left with holders — never below where it began
// (every Fresh kernel's output comes from the pool, so a Recycle subtracts
// bytes an Alloc added), and above it by the residue named here, holder by
// holder. A buffer with several consumers, or saved on a stack for the
// gradient loop, is not residue: it goes back when its last reference is
// released. A new holder on the training step's path shows up as growth this
// table does not explain.
func TestPoolGaugeNeverSinks(t *testing.T) {
	// Two Transposes in a row: each output has one consumer, so the executor
	// owns and recycles it. Built with New, each took its 32 760 bytes off the
	// gauge on every call.
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	y := x.Transpose().Transpose().ReduceSum()
	sess := dcf.NewSession(g)
	defer sess.Close()
	call, err := sess.MakeCallable(dcf.CallableSpec{Feeds: []string{"x"}, Fetches: []dcf.Tensor{y}})
	if err != nil {
		t.Fatal(err)
	}
	xv := dcf.RandNormal(1, 0, 1, 63, 65)
	ctx := context.Background()
	rnn := rnnTrainStep(t)
	// The training step's growth ceiling; it grew 5.43 MB a step while a
	// token with fan-out was the collector's.
	const rnnCeiling = 256 << 10
	for _, c := range []struct {
		name    string
		step    func()
		residue map[string]int64 // holder: pool bytes it keeps per step
	}{
		{"transpose chain", func() {
			if _, err := call.Call(ctx, xv); err != nil {
				t.Fatal(err)
			}
		}, map[string]int64{"the fetched sum": 8}},
		{"rnn train step", func() { rnn.step() }, map[string]int64{
			// The accumulated gradients: ApplyGradientDescent reads them and
			// keeps nothing, but its output is the variable, so it is not
			// Fresh and what it is handed is the collector's.
			"ApplyGradientDescent, the [96,256] kernel gradient": 96 * 256 * 8,
			"ApplyGradientDescent, the [256] bias gradient":      256 * 8,
			"the fetched loss": 8,
			"SumGrad (not Fresh), the loss gradient's seed and the shape it broadcasts to":        8 + 16,
			"TensorArrayRead (a holder), the 11 of 12 time indices that reach it in pool buffers": 11 * 8,
		}},
	} {
		var want int64
		for _, bytes := range c.residue {
			want += bytes
		}
		c.step() // the first call compiles the plan
		for i := 0; i < 100; i++ {
			start := poolLive.Value()
			c.step()
			if grew := poolLive.Value() - start; grew != want {
				t.Fatalf("%s: call %d moved the pool's live bytes by %d, the holders named account for %d (%v)", c.name, i, grew, want, c.residue)
			}
		}
		if c.name == "rnn train step" && want > rnnCeiling {
			t.Fatalf("%s: %d bytes a step stay with holders, ceiling %d", c.name, want, rnnCeiling)
		}
	}
}

// BenchmarkRNNTrainStep is one rnn_train-shaped SGD step. After the timed
// loop seven more steps run traced, and the median of their span time is
// reported by kind of kernel, so a run says where a step's time is and not
// only how long it is. The median, because one traced step on a shared host
// reads anything from 1× to 4× the next one's and could not be compared
// across commits.
func BenchmarkRNNTrainStep(b *testing.B) {
	rnn := rnnTrainStep(b)
	rnn.step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnn.step()
	}
	b.StopTimer()
	kinds := []string{"matmul", "transpose", "elementwise", "reduce", "other", "kernel"}
	const tracedSteps = 7
	samples := map[string][]float64{}
	for s := 0; s < tracedSteps; s++ {
		spent := map[string]time.Duration{}
		for _, e := range rnn.traced().Events() {
			spent[kernelKind(e.Op)] += e.End - e.Start
			spent["kernel"] += e.End - e.Start
		}
		for _, kind := range kinds {
			samples[kind] = append(samples[kind], float64(spent[kind].Microseconds()))
		}
	}
	for _, kind := range kinds {
		sort.Float64s(samples[kind])
		b.ReportMetric(samples[kind][tracedSteps/2], kind+"_us/step")
	}
}

// kernelKind is the line of BenchmarkRNNTrainStep's breakdown an op's span
// time is added to.
func kernelKind(op string) string {
	switch op {
	case "MatMul":
		return "matmul"
	case "Transpose":
		return "transpose"
	case "Sum", "Mean", "Max", "Min", "UnbroadcastTo":
		return "reduce"
	case "Neg", "Abs", "Exp", "Log", "Sqrt", "Square", "Sigmoid", "Tanh", "Relu", "Sign",
		"SigmoidGrad", "TanhGrad", "Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "Mod", "AddN":
		return "elementwise"
	}
	return "other"
}

// resolve resolves an estimate's symbolic factors: rows is the product of the
// unknown dimensions, iters the loop trip count.
func resolve(est *verify.MemEstimate, rows, iters int64) int64 {
	return est.FixedBytes + rows*est.PerRowBytes + iters*est.PerIterBytes + rows*iters*est.PerRowIterBytes
}
