package dcf_test

import (
	"math"
	"slices"
	"testing"

	"repro/dcf"
	"repro/internal/core"
	"repro/internal/graph"
)

// evalT builds a one-op expression and evaluates it.
func evalT(t *testing.T, build func(g *dcf.Graph) dcf.Tensor) *dcf.Value {
	t.Helper()
	g := dcf.NewGraph()
	out := build(g)
	if g.Err() != nil {
		t.Fatal(g.Err())
	}
	v, err := dcf.NewSession(g).Run1(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// evalOp builds an expression on g's builder, for the ops dcf.Tensor has
// no method for, and evaluates it.
func evalOp(t *testing.T, build func(b *core.Builder) graph.Output) *dcf.Value {
	t.Helper()
	b := dcf.NewGraph().Builder()
	out := build(b)
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	v, err := core.NewSession(b).Run(nil, []graph.Output{out}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v[0]
}

func TestFluentMathOps(t *testing.T) {
	v := evalOp(t, func(b *core.Builder) graph.Output {
		x := b.Const(dcf.FromFloats([]float64{4, 9}, 2))
		y := b.Const(dcf.FromFloats([]float64{2, 3}, 2))
		return b.Op("Mod", nil, b.Op("Pow", nil, b.Op("Div", nil, x, y), y), b.Scalar(5)) // (2,3)->(4,27)->(4,2)
	})
	if !equal(v, dcf.FromFloats([]float64{4, 2}, 2)) {
		t.Fatalf("got %v", v)
	}
}

func TestFluentComparisonAndLogic(t *testing.T) {
	v := evalOp(t, func(b *core.Builder) graph.Output {
		x := b.Const(dcf.FromFloats([]float64{1, 2, 3}, 3))
		y := b.Const(dcf.FromFloats([]float64{2, 2, 2}, 3))
		ge := b.Op("GreaterEqual", nil, x, y)
		ne := b.Op("NotEqual", nil, x, y)
		or := b.Op("LogicalOr", nil, b.Op("LogicalAnd", nil, ge, ne), b.Op("LessEqual", nil, x, b.Scalar(1)))
		return b.Op("Cast", map[string]any{"to": dcf.Float}, b.Op("LogicalNot", nil, or))
	})
	// ge: F,T,T; ne: T,F,T; and: F,F,T; le1: T,F,F; or: T,F,T; not: F,T,F
	if !equal(v, dcf.FromFloats([]float64{0, 1, 0}, 3)) {
		t.Fatalf("got %v", v)
	}
}

func TestFluentArrayOps(t *testing.T) {
	v := evalT(t, func(g *dcf.Graph) dcf.Tensor {
		a := g.Const(dcf.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 3, 2))
		ix := g.Const(dcf.FromInts([]int64{2, 0}, 2))
		return a.Gather(ix).Reshape(4).ExpandDims(0).Squeeze()
	})
	if !equal(v, dcf.FromFloats([]float64{5, 6, 1, 2}, 4)) {
		t.Fatalf("got %v", v)
	}
}

func TestFluentSelectMaximumMinimum(t *testing.T) {
	v := evalOp(t, func(b *core.Builder) graph.Output {
		x := b.Const(dcf.FromFloats([]float64{1, -5, 3}, 3))
		clipped := b.Op("Minimum", nil, b.Op("Maximum", nil, x, b.Scalar(-1)), b.Scalar(2))
		pos := b.Op("Greater", nil, x, b.Scalar(0))
		return b.Op("Select", nil, pos, clipped, b.Neg(clipped))
	})
	// clipped: 1,-1,2; pos: T,F,T; select: 1, 1, 2
	if !equal(v, dcf.FromFloats([]float64{1, 1, 2}, 3)) {
		t.Fatalf("got %v", v)
	}
}

func TestConcatPackUnpackAddN(t *testing.T) {
	v := evalT(t, func(g *dcf.Graph) dcf.Tensor {
		a := g.Const(dcf.FromFloats([]float64{1, 2}, 2))
		b := g.Const(dcf.FromFloats([]float64{3, 4}, 2))
		packed := dcf.Pack(a, b) // [2,2]
		parts := dcf.Unpack(packed, 2)
		summed := dcf.AddN(parts[0], parts[1]) // [4,6]
		return dcf.Concat(0, summed, a)        // [4,6,1,2]
	})
	if !equal(v, dcf.FromFloats([]float64{4, 6, 1, 2}, 4)) {
		t.Fatalf("got %v", v)
	}
}

func TestShapeIntrospectionOps(t *testing.T) {
	v := evalOp(t, func(b *core.Builder) graph.Output {
		x := b.Const(dcf.Zeros(3, 5))
		float := func(y graph.Output) graph.Output { return b.Op("Cast", map[string]any{"to": dcf.Float}, y) }
		return b.Add(b.Op("Sum", nil, float(b.Op("Shape", nil, x))), float(b.Op("Size", nil, x)))
	})
	if v.ScalarValue() != 3+5+15 {
		t.Fatalf("got %v", v)
	}
}

func TestReduceVariants(t *testing.T) {
	v := evalT(t, func(g *dcf.Graph) dcf.Tensor {
		a := g.Const(dcf.FromFloats([]float64{1, 5, 3, 2}, 2, 2))
		mx := a.ReduceMax([]int{1}, false)    // [5,3]
		mean := a.ReduceMean([]int{0}, false) // [2,3.5]
		return dcf.Concat(0, mx, mean)
	})
	if !equal(v, dcf.FromFloats([]float64{5, 3, 2, 3.5}, 4)) {
		t.Fatalf("got %v", v)
	}
}

func TestArgMaxOneHotTile(t *testing.T) {
	g := dcf.NewGraph()
	oneHot := g.Const(dcf.FromFloats([]float64{1, 9, 3}, 1, 3)).ArgMax(1).OneHot(3)
	b := g.Builder()
	vs, err := core.NewSession(b).Run(nil, []graph.Output{b.Op("Tile", map[string]any{"reps": 2}, oneHot.Output())}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := vs[0]
	if !equal(v, dcf.FromFloats([]float64{0, 1, 0, 0, 1, 0}, 2, 3)) {
		t.Fatalf("got %v", v)
	}
}

func TestSliceColsAndRows(t *testing.T) {
	v := evalT(t, func(g *dcf.Graph) dcf.Tensor {
		a := g.Const(dcf.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
		return a.SliceCols(1, 2).SliceRows(g.Int(1), 1)
	})
	if !equal(v, dcf.FromFloats([]float64{5, 6}, 1, 2)) {
		t.Fatalf("got %v", v)
	}
}

func TestStopGradientBlocksFlow(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	y := x.Square().StopGradient().Add(x).ReduceSum()
	grads := g.MustGradients(y, x)
	v, err := dcf.NewSession(g).Run1(dcf.Feeds{"x": dcf.ScalarVal(3)}, grads[0])
	if err != nil {
		t.Fatal(err)
	}
	// d/dx (stopgrad(x^2) + x) = 1, not 2x+1.
	if v.ScalarValue() != 1 {
		t.Fatalf("got %v, want 1", v)
	}
}

func TestRandomOps(t *testing.T) {
	g := dcf.NewGraph()
	u := g.RandomUniformOp(100)
	n := g.Builder().Op("RandomNormal", map[string]any{"shape": []int{100}})
	out, err := core.NewSession(g.Builder()).Run(nil, []graph.Output{u.Output(), n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out[0].F {
		if v < 0 || v >= 1 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
	var mean float64
	for _, v := range out[1].F {
		mean += v
	}
	mean /= 100
	if mean > 0.8 || mean < -0.8 {
		t.Fatalf("normal mean suspicious: %v", mean)
	}
}

// equal reports whether a and b have one dtype, one shape and the same
// elements.
func equal(a, b *dcf.Value) bool {
	return a.DType() == b.DType() && slices.Equal(a.Shape(), b.Shape()) &&
		slices.Equal(a.F, b.F) && slices.Equal(a.I, b.I) && slices.Equal(a.B, b.B) && slices.Equal(a.S, b.S)
}

// allClose reports whether float tensors a and b have one shape and differ
// by at most tol in every element.
func allClose(a, b *dcf.Value, tol float64) bool {
	return a.DType() == dcf.Float && b.DType() == dcf.Float && slices.Equal(a.Shape(), b.Shape()) &&
		slices.EqualFunc(a.F, b.F, func(x, y float64) bool { return math.Abs(x-y) <= tol })
}
