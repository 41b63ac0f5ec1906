package autodiff

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// numericGrad estimates dy/dx by central differences, feeding perturbed
// copies of x under feedName.
func numericGrad(t *testing.T, b *core.Builder, y graph.Output, feedName string, x *tensor.Tensor, feeds map[string]*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	const eps = 1e-5
	out := tensor.ZerosLike(x)
	for i := 0; i < x.Size(); i++ {
		run := func(v float64) float64 {
			xx := x.Clone()
			xx.F[i] = v
			f := map[string]*tensor.Tensor{feedName: xx}
			for k, vv := range feeds {
				f[k] = vv
			}
			s := core.NewSession(b)
			r, err := run1(s, f, y)
			if err != nil {
				t.Fatalf("numericGrad run: %v", err)
			}
			return r.ScalarValue()
		}
		out.F[i] = (run(x.F[i]+eps) - run(x.F[i]-eps)) / (2 * eps)
	}
	return out
}

// checkGrad builds Gradients(y, [x]), runs both, and compares to numeric.
func checkGrad(t *testing.T, b *core.Builder, y, x graph.Output, feedName string, xVal *tensor.Tensor, feeds map[string]*tensor.Tensor, tol float64) {
	t.Helper()
	grads, err := Gradients(b, y, []graph.Output{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := map[string]*tensor.Tensor{feedName: xVal}
	for k, v := range feeds {
		f[k] = v
	}
	s := core.NewSession(b)
	got, err := run1(s, f, grads[0])
	if err != nil {
		t.Fatal(err)
	}
	want := numericGrad(t, b, y, feedName, xVal, feeds)
	if !tensor.AllClose(got, want, tol) {
		t.Fatalf("analytic %v\nnumeric  %v", got, want)
	}
}

func TestGradSimpleChain(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	y := b.ReduceSum(b.Op("Square", nil, b.Op("Sigmoid", nil, x)), nil, false)
	checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{0.3, -1.2, 2.0}, 3), nil, 1e-6)
}

func TestGradMatMul(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	w := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
	y := b.ReduceSum(b.MatMul(x, w), nil, false)
	checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{0.5, -1, 2, 0.1, 3, -2}, 3, 2), nil, 1e-5)
}

func TestGradBroadcastBias(t *testing.T) {
	b := core.NewBuilder()
	bias := b.Placeholder("b")
	m := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
	y := b.ReduceSum(b.Op("Square", nil, b.Add(m, bias)), nil, false)
	checkGrad(t, b, y, bias, "b", tensor.FromFloats([]float64{0.1, -0.5, 1}, 3), nil, 1e-5)
}

func TestGradMultipleUses(t *testing.T) {
	// y = x*x + 3x : both paths accumulate.
	b := core.NewBuilder()
	x := b.Placeholder("x")
	y := b.ReduceSum(b.Add(b.Mul(x, x), b.Mul(x, b.Scalar(3))), nil, false)
	checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{2, -1}, 2), nil, 1e-6)
}

func TestGradDisconnectedIsZeros(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	y := b.ReduceSum(b.Scalar(5), nil, false)
	grads, err := Gradients(b, y, []graph.Output{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(b)
	got, err := run1(s, map[string]*tensor.Tensor{"x": tensor.FromFloats([]float64{1, 2}, 2)}, grads[0])
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, tensor.Zeros(2)) {
		t.Fatalf("got %v", got)
	}
}

func TestGradDivPowExpLog(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	two := b.Scalar(2)
	y := b.ReduceSum(
		b.Add(
			b.Div(b.Op("Exp", nil, x), b.Add(x, b.Scalar(5))),
			b.Op("Pow", nil, x, two)),
		nil, false)
	checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{1.5, 0.7}, 2), nil, 1e-4)
}

func TestGradCondTrueAndFalse(t *testing.T) {
	for _, taken := range []bool{true, false} {
		b := core.NewBuilder()
		x := b.Placeholder("x")
		p := b.Placeholder("p")
		outs := b.Cond(p,
			func() []graph.Output { return []graph.Output{b.Op("Square", nil, x)} },
			func() []graph.Output { return []graph.Output{b.Mul(x, b.Scalar(3))} },
		)
		y := b.ReduceSum(outs[0], nil, false)
		feeds := map[string]*tensor.Tensor{"p": tensor.ScalarBool(taken)}
		checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{2, -1}, 2), feeds, 1e-5)
	}
}

func TestGradCondOneSidedUse(t *testing.T) {
	// x used only in the true branch; pred=false must give exact zeros.
	b := core.NewBuilder()
	x := b.Placeholder("x")
	p := b.Placeholder("p")
	outs := b.Cond(p,
		func() []graph.Output { return []graph.Output{b.Op("Square", nil, x)} },
		func() []graph.Output { return []graph.Output{b.Scalar(7)} },
	)
	y := b.ReduceSum(outs[0], nil, false)
	grads, err := Gradients(b, y, []graph.Output{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(b)
	got, err := run1(s, map[string]*tensor.Tensor{
		"x": tensor.Scalar(3), "p": tensor.ScalarBool(false),
	}, grads[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.ScalarValue() != 0 {
		t.Fatalf("untaken-branch grad = %v, want 0", got)
	}
	got2, err := run1(core.NewSession(b), map[string]*tensor.Tensor{
		"x": tensor.Scalar(3), "p": tensor.ScalarBool(true),
	}, grads[0])
	if err != nil {
		t.Fatal(err)
	}
	if got2.ScalarValue() != 6 {
		t.Fatalf("taken-branch grad = %v, want 6", got2)
	}
}

func TestGradNestedCond(t *testing.T) {
	for _, pq := range [][2]bool{{true, true}, {true, false}, {false, true}} {
		b := core.NewBuilder()
		x := b.Placeholder("x")
		p := b.Placeholder("p")
		q := b.Placeholder("q")
		outs := b.Cond(p,
			func() []graph.Output {
				inner := b.Cond(q,
					func() []graph.Output { return []graph.Output{b.Op("Square", nil, x)} },
					func() []graph.Output { return []graph.Output{b.Op("Exp", nil, x)} },
				)
				return []graph.Output{inner[0]}
			},
			func() []graph.Output { return []graph.Output{b.Mul(x, b.Scalar(5))} },
		)
		y := b.ReduceSum(outs[0], nil, false)
		feeds := map[string]*tensor.Tensor{
			"p": tensor.ScalarBool(pq[0]), "q": tensor.ScalarBool(pq[1]),
		}
		checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{0.5, 1.2}, 2), feeds, 1e-4)
	}
}

// paperLoop builds the §5.1 running example: a = x; for 3 steps a = a @ w.
func paperLoop(b *core.Builder, x, w graph.Output, steps float64) graph.Output {
	outs := b.While(
		[]graph.Output{b.Scalar(0), x},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(steps)) },
		func(v []graph.Output) []graph.Output {
			return []graph.Output{b.Add(v[0], b.Scalar(1)), b.MatMul(v[1], w)}
		},
		core.WhileOpts{},
	)
	return b.ReduceSum(outs[1], nil, false)
}

func TestGradWhileWrtLoopVariable(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	w := b.Const(tensor.FromFloats([]float64{0.5, 0.1, -0.2, 0.8}, 2, 2))
	y := paperLoop(b, x, w, 3)
	checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2), nil, 1e-4)
}

func TestGradWhileWrtLoopConstant(t *testing.T) {
	// The paper's key case: dL/dw accumulates across iterations (g_w in
	// Figure 8).
	b := core.NewBuilder()
	w := b.Placeholder("w")
	x := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2))
	y := paperLoop(b, x, w, 3)
	checkGrad(t, b, y, w, "w", tensor.FromFloats([]float64{0.5, 0.1, -0.2, 0.8}, 2, 2), nil, 1e-4)
}

func TestGradWhileZeroIterations(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	w := b.Const(tensor.FromFloats([]float64{2, 0, 0, 2}, 2, 2))
	y := paperLoop(b, x, w, 0) // loop never runs; y = sum(x)
	checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2), nil, 1e-6)
}

func TestGradWhileDataDependentTripCount(t *testing.T) {
	// Trip count depends on a fed value: gradient loop must use the
	// dynamic count.
	b := core.NewBuilder()
	x := b.Placeholder("x")
	n := b.Placeholder("n")
	outs := b.While(
		[]graph.Output{b.Scalar(0), x},
		func(v []graph.Output) graph.Output { return b.Less(v[0], n) },
		func(v []graph.Output) []graph.Output {
			return []graph.Output{b.Add(v[0], b.Scalar(1)), b.Mul(v[1], v[1])}
		},
		core.WhileOpts{},
	)
	y := b.ReduceSum(outs[1], nil, false)
	feeds := map[string]*tensor.Tensor{"n": tensor.Scalar(3)}
	// y = x^(2^3) = x^8, dy/dx = 8 x^7.
	checkGrad(t, b, y, x, "x", tensor.Scalar(1.1), feeds, 1e-3)
}

func TestGradCondInsideWhile(t *testing.T) {
	// s += (i even ? x*x : x) over 4 iterations; checks the §5.1 rule of
	// pushing guard predicates on stacks.
	b := core.NewBuilder()
	x := b.Placeholder("x")
	two := b.Scalar(2)
	outs := b.While(
		[]graph.Output{b.Scalar(0), b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(4)) },
		func(v []graph.Output) []graph.Output {
			isEven := b.Op("Equal", nil, b.Op("Mod", nil, v[0], two), b.Scalar(0))
			inc := b.Cond(isEven,
				func() []graph.Output { return []graph.Output{b.Mul(x, x)} },
				func() []graph.Output { return []graph.Output{x} },
			)
			return []graph.Output{b.Add(v[0], b.Scalar(1)), b.Add(v[1], inc[0])}
		},
		core.WhileOpts{},
	)
	y := outs[1] // scalar already: y = 2x^2 + 2x, dy/dx = 4x + 2
	checkGrad(t, b, y, x, "x", tensor.Scalar(1.5), nil, 1e-4)
}

func TestGradNestedWhile(t *testing.T) {
	// outer 2 iterations of { inner 3 iterations of a = a*x } -> y = a0 * x^6.
	b := core.NewBuilder()
	x := b.Placeholder("x")
	outs := b.While(
		[]graph.Output{b.Scalar(0), b.Scalar(1)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(2)) },
		func(v []graph.Output) []graph.Output {
			inner := b.While(
				[]graph.Output{b.Scalar(0), v[1]},
				func(iv []graph.Output) graph.Output { return b.Less(iv[0], b.Scalar(3)) },
				func(iv []graph.Output) []graph.Output {
					return []graph.Output{b.Add(iv[0], b.Scalar(1)), b.Mul(iv[1], x)}
				},
				core.WhileOpts{Name: "inner"},
			)
			return []graph.Output{b.Add(v[0], b.Scalar(1)), inner[1]}
		},
		core.WhileOpts{Name: "outer"},
	)
	y := outs[1]
	// y = x^6, dy/dx = 6 x^5.
	checkGrad(t, b, y, x, "x", tensor.Scalar(1.2), nil, 1e-3)
}

func TestGradScan(t *testing.T) {
	b := core.NewBuilder()
	elems := b.Placeholder("e")
	scanned := b.Scan(
		func(acc, v graph.Output) graph.Output { return b.Add(b.Mul(acc, v), v) },
		elems, b.Scalar(1), core.WhileOpts{},
	)
	y := b.ReduceSum(scanned, nil, false)
	checkGrad(t, b, y, elems, "e", tensor.FromFloats([]float64{0.5, 1.5, -0.7}, 3), nil, 1e-4)
}

func TestGradFoldL(t *testing.T) {
	b := core.NewBuilder()
	elems := b.Placeholder("e")
	y := b.FoldL(
		func(acc, v graph.Output) graph.Output {
			return b.Add(b.Mul(acc, b.Scalar(0.5)), b.Op("Square", nil, v))
		},
		elems, b.Scalar(0), core.WhileOpts{},
	)
	checkGrad(t, b, y, elems, "e", tensor.FromFloats([]float64{1, 2, 3}, 3), nil, 1e-4)
}

func TestGradTensorArrayReadWrite(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	ta := b.TensorArray(b.ScalarInt(2))
	ta = b.TAWrite(ta, b.ScalarInt(0), b.Op("Square", nil, x))
	ta = b.TAWrite(ta, b.ScalarInt(1), b.Mul(x, b.Scalar(3)))
	// Read location 0 twice: gradient array must sum the partials.
	r0a := b.TARead(ta, b.ScalarInt(0))
	r0b := b.TARead(ta, b.ScalarInt(0))
	r1 := b.TARead(ta, b.ScalarInt(1))
	y := b.ReduceSum(b.Add(b.Add(r0a, r0b), r1), nil, false)
	checkGrad(t, b, y, x, "x", tensor.Scalar(2.5), nil, 1e-5)
}

func TestGradThroughVariableRead(t *testing.T) {
	b := core.NewBuilder()
	w := b.Variable("w", tensor.FromFloats([]float64{1, 2}, 2))
	y := b.ReduceSum(b.Op("Square", nil, w), nil, false)
	grads, err := Gradients(b, y, []graph.Output{w}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(b)
	if err := s.InitVariables(); err != nil {
		t.Fatal(err)
	}
	got, err := run1(s, nil, grads[0])
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, tensor.FromFloats([]float64{2, 4}, 2)) {
		t.Fatalf("got %v", got)
	}
}

func TestGradLossAfterLoopMixture(t *testing.T) {
	// Combine a loop output with a non-loop path to the same parameter.
	b := core.NewBuilder()
	x := b.Placeholder("x")
	w := b.Const(tensor.FromFloats([]float64{0.3, -0.4, 0.7, 0.2}, 2, 2))
	loop := paperLoop(b, x, w, 2)
	direct := b.ReduceSum(b.Op("Square", nil, x), nil, false)
	y := b.Add(loop, direct)
	checkGrad(t, b, y, x, "x", tensor.FromFloats([]float64{1, -2, 0.5, 3}, 2, 2), nil, 1e-4)
}

func TestGradSecondCallOnSameLoop(t *testing.T) {
	// Two Gradients calls over the same forward loop must not corrupt it.
	b := core.NewBuilder()
	x := b.Placeholder("x")
	w := b.Const(tensor.FromFloats([]float64{0.5, 0.1, -0.2, 0.8}, 2, 2))
	y := paperLoop(b, x, w, 3)
	g1, err := Gradients(b, y, []graph.Output{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Gradients(b, y, []graph.Output{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	xv := tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2)
	s := core.NewSession(b)
	r, err := s.Run(map[string]*tensor.Tensor{"x": xv}, []graph.Output{g1[0], g2[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(r[0], r[1], 1e-9) {
		t.Fatalf("two gradient builds disagree: %v vs %v", r[0], r[1])
	}
}

func TestGradErrorsOnYInsideContext(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	var inner graph.Output
	b.While(
		[]graph.Output{x},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(1)) },
		func(v []graph.Output) []graph.Output {
			inner = b.Op("Square", nil, v[0])
			return []graph.Output{inner}
		},
		core.WhileOpts{},
	)
	if _, err := Gradients(b, inner, []graph.Output{x}, Options{}); err == nil {
		t.Fatal("expected error for y inside a loop")
	}
}

// run1 runs the step that fetches one output.
func run1(s *core.Session, feeds map[string]*tensor.Tensor, fetch graph.Output) (*tensor.Tensor, error) {
	out, err := s.Run(feeds, []graph.Output{fetch}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
