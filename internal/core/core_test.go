package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/verify"
)

func run1(t *testing.T, b *Builder, fetch graph.Output, feeds map[string]*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	s := NewSession(b)
	out, err := fetch1(s, feeds, fetch)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBuilderArithmetic(t *testing.T) {
	b := NewBuilder()
	x := b.Scalar(3)
	y := b.Scalar(4)
	z := b.Add(b.Op("Square", nil, x), b.Op("Square", nil, y))
	if got := run1(t, b, z, nil).ScalarValue(); got != 25 {
		t.Fatalf("got %v", got)
	}
}

func TestStickyError(t *testing.T) {
	b := NewBuilder()
	bad := b.Op("NoSuchOp", nil)
	_ = bad
	if b.Err() == nil {
		t.Fatal("expected sticky error")
	}
	// Subsequent ops are no-ops.
	out := b.Scalar(1)
	if out.Node != nil {
		t.Fatal("ops after error should return zero Output")
	}
	s := NewSession(b)
	if _, err := s.Run(nil, nil, nil); err == nil {
		t.Fatal("run should surface the construction error")
	}
}

func TestCondBothBranches(t *testing.T) {
	build := func() (*Builder, graph.Output, graph.Output) {
		b := NewBuilder()
		p := b.Placeholder("p")
		x := b.Scalar(10)
		outs := b.Cond(p,
			func() []graph.Output { return []graph.Output{b.Neg(x)} },
			func() []graph.Output { return []graph.Output{b.Op("Square", nil, x)} },
		)
		return b, p, outs[0]
	}
	b, _, out := build()
	got := run1(t, b, out, map[string]*tensor.Tensor{"p": tensor.ScalarBool(true)})
	if got.ScalarValue() != -10 {
		t.Fatalf("true: got %v", got)
	}
	b2, _, out2 := build()
	got2 := run1(t, b2, out2, map[string]*tensor.Tensor{"p": tensor.ScalarBool(false)})
	if got2.ScalarValue() != 100 {
		t.Fatalf("false: got %v", got2)
	}
}

func TestCondBranchReturnsExternalDirectly(t *testing.T) {
	b := NewBuilder()
	p := b.Placeholder("p")
	x := b.Scalar(5)
	outs := b.Cond(p,
		func() []graph.Output { return []graph.Output{x} }, // pass-through
		func() []graph.Output { return []graph.Output{b.Neg(x)} },
	)
	got := run1(t, b, outs[0], map[string]*tensor.Tensor{"p": tensor.ScalarBool(true)})
	if got.ScalarValue() != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestCondConstInBranchRunsOnlyWhenTaken(t *testing.T) {
	// A no-input op (Const) in a branch must be guarded by the pivot.
	b := NewBuilder()
	p := b.Placeholder("p")
	outs := b.Cond(p,
		func() []graph.Output { return []graph.Output{b.Scalar(1)} },
		func() []graph.Output { return []graph.Output{b.Scalar(2)} },
	)
	s := NewSession(b)
	got, err := fetch1(s, map[string]*tensor.Tensor{"p": tensor.ScalarBool(false)}, outs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.ScalarValue() != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestNestedCond(t *testing.T) {
	b := NewBuilder()
	p := b.Placeholder("p")
	q := b.Placeholder("q")
	x := b.Scalar(3)
	outs := b.Cond(p,
		func() []graph.Output {
			inner := b.Cond(q,
				func() []graph.Output { return []graph.Output{b.Add(x, b.Scalar(1))} },
				func() []graph.Output { return []graph.Output{b.Add(x, b.Scalar(2))} },
			)
			return []graph.Output{inner[0]}
		},
		func() []graph.Output { return []graph.Output{b.Scalar(0)} },
	)
	for _, tc := range []struct {
		p, q bool
		want float64
	}{{true, true, 4}, {true, false, 5}, {false, true, 0}, {false, false, 0}} {
		b2 := b // same graph, fresh session
		got, err := fetch1(NewSession(b2), map[string]*tensor.Tensor{
			"p": tensor.ScalarBool(tc.p), "q": tensor.ScalarBool(tc.q),
		}, outs[0])
		if err != nil {
			t.Fatalf("p=%v q=%v: %v", tc.p, tc.q, err)
		}
		if got.ScalarValue() != tc.want {
			t.Fatalf("p=%v q=%v: got %v want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestWhileCounter(t *testing.T) {
	b := NewBuilder()
	outs := b.While(
		[]graph.Output{b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(10)) },
		func(v []graph.Output) []graph.Output {
			return []graph.Output{b.Add(v[0], b.Scalar(1))}
		},
		WhileOpts{},
	)
	if got := run1(t, b, outs[0], nil).ScalarValue(); got != 10 {
		t.Fatalf("got %v", got)
	}
}

func TestWhileCapturesExternalAsLoopConstant(t *testing.T) {
	b := NewBuilder()
	step := b.Scalar(2.5) // external, captured as loop constant
	outs := b.While(
		[]graph.Output{b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(10)) },
		func(v []graph.Output) []graph.Output {
			return []graph.Output{b.Add(v[0], step)}
		},
		WhileOpts{},
	)
	if got := run1(t, b, outs[0], nil).ScalarValue(); got != 10 {
		t.Fatalf("got %v", got)
	}
}

// TestWhileNextFromLoopConstantsOnly: a loop variable whose next value
// reads nothing but loop constants — computed from them, or one of them
// returned as is — must wait for its iteration to run. Ungated, it fired
// in the iteration the predicate ended and started one more, and the step
// never finished, at any trip count and window.
func TestWhileNextFromLoopConstantsOnly(t *testing.T) {
	for _, window := range []int{1, 32} {
		for _, trips := range []float64{0, 1, 3} {
			for _, next := range []string{"computed", "passed through"} {
				b := NewBuilder()
				k := b.Scalar(1.5) // outside the loop
				outs := b.While(
					[]graph.Output{b.Scalar(0), b.Scalar(-1)},
					func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(trips)) },
					func(v []graph.Output) []graph.Output {
						if next == "computed" {
							return []graph.Output{b.Add(v[0], b.Scalar(1)), b.Tanh(k)}
						}
						return []graph.Output{b.Add(v[0], b.Scalar(1)), k}
					},
					WhileOpts{ParallelIterations: window},
				)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				got, _, err := NewSession(b).RunCtx(ctx, RunOptions{Fetches: []graph.Output{outs[0], outs[1]}})
				cancel()
				if err != nil {
					t.Fatalf("window %d, %v trips, %s: %v", window, trips, next, err)
				}
				want := -1.0
				if trips > 0 && next == "computed" {
					want = math.Tanh(1.5)
				} else if trips > 0 {
					want = 1.5
				}
				if got[0].ScalarValue() != trips || got[1].ScalarValue() != want {
					t.Fatalf("window %d, %v trips, %s: got %v, %v; want %v, %v", window, trips, next, got[0], got[1], trips, want)
				}
			}
		}
	}
}

func TestWhileMatMulPower(t *testing.T) {
	// a = x; repeat 3: a = a @ w  — the paper's §5.1 running example.
	b := NewBuilder()
	w := b.Const(tensor.FromFloats([]float64{2, 0, 0, 2}, 2, 2))
	x := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2))
	outs := b.While(
		[]graph.Output{b.Scalar(0), x},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
		func(v []graph.Output) []graph.Output {
			return []graph.Output{b.Add(v[0], b.Scalar(1)), b.MatMul(v[1], w)}
		},
		WhileOpts{},
	)
	got := run1(t, b, outs[1], nil)
	want := tensor.FromFloats([]float64{8, 16, 24, 32}, 2, 2)
	if !equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestNestedWhile(t *testing.T) {
	// for i in 0..3: for j in 0..4: s++  => 12
	b := NewBuilder()
	outs := b.While(
		[]graph.Output{b.Scalar(0), b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
		func(v []graph.Output) []graph.Output {
			inner := b.While(
				[]graph.Output{b.Scalar(0), v[1]},
				func(iv []graph.Output) graph.Output { return b.Less(iv[0], b.Scalar(4)) },
				func(iv []graph.Output) []graph.Output {
					return []graph.Output{
						b.Add(iv[0], b.Scalar(1)),
						b.Add(iv[1], b.Scalar(1)),
					}
				},
				WhileOpts{Name: "inner"},
			)
			return []graph.Output{b.Add(v[0], b.Scalar(1)), inner[1]}
		},
		WhileOpts{Name: "outer"},
	)
	if got := run1(t, b, outs[1], nil).ScalarValue(); got != 12 {
		t.Fatalf("got %v", got)
	}
}

func TestCondInsideWhile(t *testing.T) {
	// s += (i even ? 10 : 1) for i in 0..5  => 10+1+10+1+10+1 = 33
	b := NewBuilder()
	two := b.Scalar(2)
	outs := b.While(
		[]graph.Output{b.Scalar(0), b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(6)) },
		func(v []graph.Output) []graph.Output {
			mod := b.Op("Mod", nil, v[0], two)
			isEven := b.Op("Equal", nil, mod, b.Scalar(0))
			inc := b.Cond(isEven,
				func() []graph.Output { return []graph.Output{b.Scalar(10)} },
				func() []graph.Output { return []graph.Output{b.Scalar(1)} },
			)
			return []graph.Output{b.Add(v[0], b.Scalar(1)), b.Add(v[1], inc[0])}
		},
		WhileOpts{},
	)
	if got := run1(t, b, outs[1], nil).ScalarValue(); got != 33 {
		t.Fatalf("got %v", got)
	}
}

func TestWhileInsideCond(t *testing.T) {
	b := NewBuilder()
	p := b.Placeholder("p")
	outs := b.Cond(p,
		func() []graph.Output {
			l := b.While(
				[]graph.Output{b.Scalar(0)},
				func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(5)) },
				func(v []graph.Output) []graph.Output {
					return []graph.Output{b.Add(v[0], b.Scalar(1))}
				},
				WhileOpts{},
			)
			return []graph.Output{l[0]}
		},
		func() []graph.Output { return []graph.Output{b.Scalar(-1)} },
	)
	got := run1(t, b, outs[0], map[string]*tensor.Tensor{"p": tensor.ScalarBool(true)})
	if got.ScalarValue() != 5 {
		t.Fatalf("taken loop: got %v", got)
	}
	got2, err := fetch1(NewSession(b), map[string]*tensor.Tensor{"p": tensor.ScalarBool(false)}, outs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got2.ScalarValue() != -1 {
		t.Fatalf("untaken loop: got %v", got2)
	}
}

func TestLoopVarCountMismatch(t *testing.T) {
	b := NewBuilder()
	b.While(
		[]graph.Output{b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(1)) },
		func(v []graph.Output) []graph.Output {
			return []graph.Output{v[0], v[0]} // wrong arity
		},
		WhileOpts{},
	)
	if b.Err() == nil || !strings.Contains(b.Err().Error(), "loop variables") {
		t.Fatalf("want arity error, got %v", b.Err())
	}
}

func TestValueLeakAcrossSiblingContexts(t *testing.T) {
	b := NewBuilder()
	p := b.Placeholder("p")
	var leaked graph.Output
	b.Cond(p,
		func() []graph.Output {
			leaked = b.Scalar(1)
			return []graph.Output{leaked}
		},
		func() []graph.Output { return []graph.Output{b.Scalar(2)} },
	)
	// Using a true-branch value at root must fail.
	b.Neg(leaked)
	if b.Err() == nil {
		t.Fatal("expected a context-leak error")
	}
}

func TestTensorArrayWriteRead(t *testing.T) {
	b := NewBuilder()
	ta := b.TensorArray(b.ScalarInt(3))
	ta = b.TAWrite(ta, b.ScalarInt(0), b.Scalar(10))
	ta = b.TAWrite(ta, b.ScalarInt(1), b.Scalar(20))
	ta = b.TAWrite(ta, b.ScalarInt(2), b.Scalar(30))
	r := b.TARead(ta, b.ScalarInt(1))
	if got := run1(t, b, r, nil).ScalarValue(); got != 20 {
		t.Fatalf("got %v", got)
	}
}

func TestTensorArrayStackUnstack(t *testing.T) {
	b := NewBuilder()
	x := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 3, 2))
	ta := b.TAUnstack(b.TensorArray(b.ScalarInt(0)), x)
	back := b.TAStack(ta)
	got := run1(t, b, back, nil)
	if !equal(got, tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 3, 2)) {
		t.Fatalf("got %v", got)
	}
}

func TestScan(t *testing.T) {
	b := NewBuilder()
	elems := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4}, 4))
	out := b.Scan(
		func(acc, x graph.Output) graph.Output { return b.Add(acc, x) },
		elems, b.Scalar(0), WhileOpts{},
	)
	got := run1(t, b, out, nil)
	want := tensor.FromFloats([]float64{1, 3, 6, 10}, 4)
	if !equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMapFn(t *testing.T) {
	b := NewBuilder()
	elems := b.Const(tensor.FromFloats([]float64{1, 2, 3}, 3))
	out := b.MapFn(func(x graph.Output) graph.Output { return b.Op("Square", nil, x) }, elems, WhileOpts{})
	got := run1(t, b, out, nil)
	if !equal(got, tensor.FromFloats([]float64{1, 4, 9}, 3)) {
		t.Fatalf("got %v", got)
	}
}

func TestFoldLFoldR(t *testing.T) {
	b := NewBuilder()
	elems := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4}, 4))
	suml := b.FoldL(func(acc, x graph.Output) graph.Output { return b.Add(acc, x) }, elems, b.Scalar(0), WhileOpts{})
	// foldr with subtraction distinguishes direction:
	// foldr: ((((0 - 4) - 3) - 2) - 1) = -10 ; foldl: -10 too. Use
	// concat-like asymmetry instead: acc*10 + x.
	ten := b.Scalar(10)
	dig := func(acc, x graph.Output) graph.Output { return b.Add(b.Mul(acc, ten), x) }
	l := b.FoldL(dig, elems, b.Scalar(0), WhileOpts{})
	r := b.FoldR(dig, elems, b.Scalar(0), WhileOpts{})
	s := NewSession(b)
	outs, err := s.Run(nil, []graph.Output{suml, l, r}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].ScalarValue() != 10 {
		t.Fatalf("foldl sum got %v", outs[0])
	}
	if outs[1].ScalarValue() != 1234 {
		t.Fatalf("foldl digits got %v", outs[1])
	}
	if outs[2].ScalarValue() != 4321 {
		t.Fatalf("foldr digits got %v", outs[2])
	}
}

func TestVariablesAcrossRuns(t *testing.T) {
	b := NewBuilder()
	v := b.Variable("counter", tensor.Scalar(0))
	_ = v
	inc := b.OpNode("AssignAdd", "", map[string]any{"var": "counter"}, b.Scalar(1))
	read := b.ReadVariable("counter")
	s := NewSession(b)
	if err := s.InitVariables(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Run(nil, nil, []*graph.Node{inc}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fetch1(s, nil, read)
	if err != nil {
		t.Fatal(err)
	}
	if got.ScalarValue() != 3 {
		t.Fatalf("counter = %v", got)
	}
}

func TestPruneSkipsUnrelated(t *testing.T) {
	b := NewBuilder()
	a := b.Scalar(1)
	unrelated := b.Placeholder("never_fed")
	_ = b.Neg(unrelated) // must be pruned or Run would fail on feed
	out := b.Add(a, a)
	got := run1(t, b, out, nil)
	if got.ScalarValue() != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestInGraphTrainingLoopPattern(t *testing.T) {
	// §2.2 "other usage": a training loop written in-graph — the loop
	// carries the model state (here a scalar) through iterations.
	b := NewBuilder()
	lr := b.Scalar(0.25)
	target := b.Scalar(4)
	outs := b.While(
		[]graph.Output{b.Scalar(0), b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(100)) },
		func(v []graph.Output) []graph.Output {
			wv := v[1]
			grad := b.Mul(b.Sub(wv, target), b.Scalar(2)) // d/dw (w-4)^2
			return []graph.Output{
				b.Add(v[0], b.Scalar(1)),
				b.Sub(wv, b.Mul(lr, grad)),
			}
		},
		WhileOpts{Name: "train"},
	)
	got := run1(t, b, outs[1], nil)
	if d := got.ScalarValue() - 4; d > 1e-6 || d < -1e-6 {
		t.Fatalf("w = %v, want ~4", got)
	}
}

func TestDeviceScopes(t *testing.T) {
	b := NewBuilder()
	var n1, n2 *graph.Node
	b.WithDevice("gpu:0", func() {
		n1 = b.OpNode("Const", "", map[string]any{"value": tensor.Scalar(1)})
	})
	n2 = b.OpNode("Const", "", map[string]any{"value": tensor.Scalar(2)})
	if n1.Device() != "gpu:0" || n2.Device() != "" {
		t.Fatalf("devices: %q %q", n1.Device(), n2.Device())
	}
}

func TestWhileGraphStructure(t *testing.T) {
	b := NewBuilder()
	_, wc := b.WhileCtx(
		[]graph.Output{b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
		func(v []graph.Output) []graph.Output { return []graph.Output{b.Add(v[0], b.Scalar(1))} },
		WhileOpts{},
	)
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	if len(wc.Enters) != 1 || len(wc.Merges) != 1 || len(wc.Switches) != 1 ||
		len(wc.NextIters) != 1 || len(wc.Exits) != 1 {
		t.Fatalf("structure: %+v", wc)
	}
	if wc.LoopCondNode == nil {
		t.Fatal("no LoopCond")
	}
	if err := verify.Check(b.G, verify.Options{Complete: true}).Err(); err != nil {
		t.Fatal(err)
	}
}

// fetch1 runs the step that fetches one output.
func fetch1(s *Session, feeds map[string]*tensor.Tensor, fetch graph.Output) (*tensor.Tensor, error) {
	out, err := s.Run(feeds, []graph.Output{fetch}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// equal reports whether a and b have one dtype, one shape and the same
// elements.
func equal(a, b *tensor.Tensor) bool {
	return a.DType() == b.DType() && slices.Equal(a.Shape(), b.Shape()) &&
		slices.Equal(a.F, b.F) && slices.Equal(a.I, b.I) && slices.Equal(a.B, b.B) && slices.Equal(a.S, b.S)
}

// allClose reports whether float tensors a and b have one shape and differ
// by at most tol in every element.
func allClose(a, b *tensor.Tensor, tol float64) bool {
	return a.DType() == tensor.Float && b.DType() == tensor.Float && slices.Equal(a.Shape(), b.Shape()) &&
		slices.EqualFunc(a.F, b.F, func(x, y float64) bool { return math.Abs(x-y) <= tol })
}
