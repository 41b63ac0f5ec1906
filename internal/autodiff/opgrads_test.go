package autodiff

// Finite-difference checks for the array/shape op gradients not covered by
// the dedicated control-flow tests: each case builds y = reduce(f(x)) for
// one op f and compares Gradients against central differences.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

type opGradCase struct {
	name  string
	x     *tensor.Tensor
	build func(b *core.Builder, x graph.Output) graph.Output
	tol   float64
}

func TestArrayOpGradients(t *testing.T) {
	cases := []opGradCase{
		{
			name: "Concat",
			x:    tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				other := b.Const(tensor.FromFloats([]float64{5, 6, 7, 8, 9, 10}, 2, 3))
				c := b.Op("Concat", map[string]any{"axis": 1}, x, other)
				return b.ReduceSum(b.Op("Square", nil, c), nil, false)
			},
		},
		{
			name: "PackUnpack",
			x:    tensor.FromFloats([]float64{1, 2, 3}, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				p := b.Op("Pack", nil, x, b.Neg(x))
				parts := b.OpNode("Unpack", "", map[string]any{"num": 2}, p)
				return b.ReduceSum(b.Op("Square", nil, parts.Out(0)), nil, false)
			},
		},
		{
			name: "Gather",
			x:    tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 3, 2),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				ix := b.Const(tensor.FromInts([]int64{2, 0, 2}, 3))
				g := b.Op("Gather", nil, x, ix)
				return b.ReduceSum(b.Op("Square", nil, g), nil, false)
			},
		},
		{
			name: "Select",
			x:    tensor.FromFloats([]float64{1, -2, 3, -4}, 4),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				cond := b.Const(tensor.FromBools([]bool{true, false, true, false}, 4))
				s := b.Op("Select", nil, cond, b.Op("Square", nil, x), b.Neg(x))
				return b.ReduceSum(s, nil, false)
			},
		},
		{
			name: "Softmax",
			x:    tensor.FromFloats([]float64{0.5, -1, 2, 0.1, 0.2, 0.3}, 2, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				sm := b.Op("Softmax", nil, x)
				w := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
				return b.ReduceSum(b.Mul(sm, w), nil, false)
			},
			tol: 1e-4,
		},
		{
			name: "LogSoftmax",
			x:    tensor.FromFloats([]float64{0.5, -1, 2}, 1, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				ls := b.Op("LogSoftmax", nil, x)
				w := b.Const(tensor.FromFloats([]float64{1, 0, 2}, 1, 3))
				return b.ReduceSum(b.Mul(ls, w), nil, false)
			},
			tol: 1e-4,
		},
		{
			name: "TransposePerm",
			x:    tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				tr := b.Transpose(x)
				w := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 3, 2))
				return b.ReduceSum(b.Op("Square", nil, b.Mul(tr, w)), nil, false)
			},
		},
		{
			name: "ReshapeExpandSqueeze",
			x:    tensor.FromFloats([]float64{1, 2, 3, 4}, 4),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				r := b.Op("Reshape", map[string]any{"shape": []int{2, 2}}, x)
				e := b.Op("ExpandDims", map[string]any{"axis": 0}, r)
				s := b.Op("Squeeze", map[string]any{"axes": []int{0}}, e)
				return b.ReduceSum(b.Op("Square", nil, s), nil, false)
			},
		},
		{
			name: "Tile",
			x:    tensor.FromFloats([]float64{1, 2}, 2),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				tl := b.Op("Tile", map[string]any{"reps": 3}, x)
				w := b.Const(tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 6))
				return b.ReduceSum(b.Mul(tl, w), nil, false)
			},
		},
		{
			name: "SliceRows",
			x:    tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 3, 2),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				s := b.Op("SliceRows", map[string]any{"size": 2}, x, b.ScalarInt(1))
				return b.ReduceSum(b.Op("Square", nil, s), nil, false)
			},
		},
		{
			name: "SliceAxis",
			x:    tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				s := b.Op("SliceAxis", map[string]any{"axis": 1}, x, b.ScalarInt(1), b.ScalarInt(2))
				return b.ReduceSum(b.Op("Square", nil, s), nil, false)
			},
		},
		{
			name: "MaxReduction",
			x:    tensor.FromFloats([]float64{1, 5, 3, 2, 8, 4}, 2, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				m := b.Op("Max", map[string]any{"axes": []int{1}}, x)
				return b.ReduceSum(b.Op("Square", nil, m), nil, false)
			},
		},
		{
			name: "MeanReduction",
			x:    tensor.FromFloats([]float64{1, 5, 3, 2}, 2, 2),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				m := b.Op("Mean", map[string]any{"axes": []int{0}}, x)
				return b.ReduceSum(b.Op("Square", nil, m), nil, false)
			},
		},
		{
			name: "MaximumMinimum",
			x:    tensor.FromFloats([]float64{1, -2, 3}, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				other := b.Const(tensor.FromFloats([]float64{0.5, 0.5, 0.5}, 3))
				mx := b.Op("Maximum", nil, x, other)
				mn := b.Op("Minimum", nil, x, other)
				return b.ReduceSum(b.Add(b.Op("Square", nil, mx), b.Op("Square", nil, mn)), nil, false)
			},
		},
		{
			name: "SplitConcatRoundtrip",
			x:    tensor.FromFloats([]float64{1, 2, 3, 4}, 4),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				parts := b.OpNode("Split", "", map[string]any{"num": 2, "axis": 0}, x)
				c := b.Op("Concat", map[string]any{"axis": 0}, parts.Out(1), parts.Out(0))
				return b.ReduceSum(b.Op("Square", nil, c), nil, false)
			},
		},
		{
			name: "AbsSqrtRelu",
			x:    tensor.FromFloats([]float64{1.5, -0.5, 2.5}, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				a := b.Op("Abs", nil, x)
				s := b.Op("Sqrt", nil, a)
				r := b.Op("Relu", nil, x)
				return b.ReduceSum(b.Add(s, r), nil, false)
			},
			tol: 1e-4,
		},
		{
			name: "BroadcastToUnbroadcast",
			x:    tensor.FromFloats([]float64{1, 2, 3}, 3),
			build: func(b *core.Builder, x graph.Output) graph.Output {
				shape := b.Const(tensor.FromInts([]int64{2, 3}, 2))
				bc := b.Op("BroadcastTo", nil, x, shape)
				return b.ReduceSum(b.Op("Square", nil, bc), nil, false)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tol := tc.tol
			if tol == 0 {
				tol = 1e-5
			}
			b := core.NewBuilder()
			x := b.Placeholder("x")
			y := tc.build(b, x)
			if b.Err() != nil {
				t.Fatal(b.Err())
			}
			checkGrad(t, b, y, x, "x", tc.x, nil, tol)
		})
	}
}
