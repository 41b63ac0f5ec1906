package autodiff

import (
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Gradient functions for the ordinary (non-control-flow) operations,
// mirroring TensorFlow's gradient library (§5.1, Figure 7). Each receives
// the forward node (with resolved access to its forward inputs/outputs) and
// the output gradients, and returns per-input gradients.
//
// Broadcasting binary ops reduce their gradients back to the operand shape
// with UnbroadcastTo driven by the runtime Shape of the operand, since this
// system does no static shape inference.

// zeroOuts is the all-nil gradient result helper.
func zeroOuts(n int) []graph.Output { return make([]graph.Output, n) }

func init() {
	RegisterNoGrad(
		"Shape", "Rank", "Size", "ShapeDim", "ZerosLike", "OnesLike",
		"Greater", "GreaterEqual", "Less", "LessEqual", "Equal", "NotEqual",
		"LogicalAnd", "LogicalOr", "LogicalNot", "ArgMax", "OneHot",
		"Placeholder", "Const", "VarRead", "RandomUniform", "RandomNormal",
		"StackPush", "StackPop", "Stack", "NoOp", "LoopCond", "Cast",
		"Assign", "AssignAdd", "AssignSub", "ApplyGradientDescent",
		"ScatterAddVar", "ScatterUpdateVar", "Sign", "Mod", "Send", "Recv",
		"StopGradient",
	)

	// Max/Min reductions: the gradient routes to the arg-extremal
	// elements (split equally on ties, matching TensorFlow).
	reduceExtremeGrad := func() GradFunc {
		return func(gc *GradCtx, og []graph.Output) []graph.Output {
			b := gc.B()
			attrs := map[string]any{
				"axes":      gc.Node.AttrsMap()["axes"],
				"keep_dims": gc.Node.AttrsMap()["keep_dims"],
			}
			x := gc.In(0)
			y := gc.Out(0)
			shape := b.Op("Shape", nil, x)
			ySpread := b.Op("SumGrad", attrs, y, shape)
			mask := b.Op("Cast", map[string]any{"to": tensor.Float},
				b.Op("Equal", nil, x, ySpread))
			count := b.Op("SumGrad", attrs,
				b.Op("Sum", attrs, mask), shape)
			gSpread := b.Op("SumGrad", attrs, og[0], shape)
			return []graph.Output{b.Div(b.Mul(gSpread, mask), count)}
		}
	}
	RegisterGrad("Max", reduceExtremeGrad())
	RegisterGrad("Min", reduceExtremeGrad())

	RegisterGrad("Identity", func(gc *GradCtx, og []graph.Output) []graph.Output {
		return []graph.Output{og[0]}
	})

	RegisterGrad("Add", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := og[0]
		ga := b.Op("UnbroadcastTo", nil, g, b.Op("Shape", nil, gc.In(0)))
		gb := b.Op("UnbroadcastTo", nil, g, b.Op("Shape", nil, gc.In(1)))
		return []graph.Output{ga, gb}
	})

	RegisterGrad("Sub", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := og[0]
		ga := b.Op("UnbroadcastTo", nil, g, b.Op("Shape", nil, gc.In(0)))
		gb := b.Op("UnbroadcastTo", nil, b.Neg(g), b.Op("Shape", nil, gc.In(1)))
		return []graph.Output{ga, gb}
	})

	RegisterGrad("Mul", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := og[0]
		a, bb := gc.In(0), gc.In(1)
		ga := b.Op("UnbroadcastTo", nil, b.Mul(g, bb), b.Op("Shape", nil, a))
		gb := b.Op("UnbroadcastTo", nil, b.Mul(g, a), b.Op("Shape", nil, bb))
		return []graph.Output{ga, gb}
	})

	RegisterGrad("Div", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := og[0]
		a, bb := gc.In(0), gc.In(1)
		ga := b.Op("UnbroadcastTo", nil, b.Div(g, bb), b.Op("Shape", nil, a))
		gb := b.Op("UnbroadcastTo", nil,
			b.Neg(b.Div(b.Mul(g, a), b.Mul(bb, bb))), b.Op("Shape", nil, bb))
		return []graph.Output{ga, gb}
	})

	RegisterGrad("Pow", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := og[0]
		a, p := gc.In(0), gc.In(1)
		y := gc.Out(0)
		one := b.Const(tensor.Scalar(1))
		ga := b.Op("UnbroadcastTo", nil,
			b.Mul(g, b.Mul(p, b.Op("Pow", nil, a, b.Sub(p, one)))),
			b.Op("Shape", nil, a))
		gp := b.Op("UnbroadcastTo", nil,
			b.Mul(g, b.Mul(y, b.Op("Log", nil, a))),
			b.Op("Shape", nil, p))
		return []graph.Output{ga, gp}
	})

	maxMinGrad := func(cmp string) GradFunc {
		return func(gc *GradCtx, og []graph.Output) []graph.Output {
			b := gc.B()
			g := og[0]
			a, bb := gc.In(0), gc.In(1)
			mask := b.Op(cmp, nil, a, bb)
			maskF := b.Op("Cast", map[string]any{"to": tensor.Float}, mask)
			inv := b.Sub(b.OnesLike(maskF), maskF)
			ga := b.Op("UnbroadcastTo", nil, b.Mul(g, maskF), b.Op("Shape", nil, a))
			gb := b.Op("UnbroadcastTo", nil, b.Mul(g, inv), b.Op("Shape", nil, bb))
			return []graph.Output{ga, gb}
		}
	}
	RegisterGrad("Maximum", maxMinGrad("GreaterEqual"))
	RegisterGrad("Minimum", maxMinGrad("LessEqual"))

	RegisterGrad("Neg", func(gc *GradCtx, og []graph.Output) []graph.Output {
		return []graph.Output{gc.B().Neg(og[0])}
	})
	RegisterGrad("Abs", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		return []graph.Output{b.Mul(og[0], b.Op("Sign", nil, gc.In(0)))}
	})
	RegisterGrad("Exp", func(gc *GradCtx, og []graph.Output) []graph.Output {
		return []graph.Output{gc.B().Mul(og[0], gc.Out(0))}
	})
	RegisterGrad("Log", func(gc *GradCtx, og []graph.Output) []graph.Output {
		return []graph.Output{gc.B().Div(og[0], gc.In(0))}
	})
	RegisterGrad("Sqrt", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		two := b.Const(tensor.Scalar(2))
		return []graph.Output{b.Div(og[0], b.Mul(two, gc.Out(0)))}
	})
	RegisterGrad("Square", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		two := b.Const(tensor.Scalar(2))
		return []graph.Output{b.Mul(og[0], b.Mul(two, gc.In(0)))}
	})
	RegisterGrad("Sigmoid", func(gc *GradCtx, og []graph.Output) []graph.Output {
		return []graph.Output{gc.B().Op("SigmoidGrad", nil, gc.Out(0), og[0])}
	})
	RegisterGrad("Tanh", func(gc *GradCtx, og []graph.Output) []graph.Output {
		return []graph.Output{gc.B().Op("TanhGrad", nil, gc.Out(0), og[0])}
	})
	// SigmoidGrad(y, dy) = dy·y·(1−y) and TanhGrad(y, dy) = dy·(1−y²), each
	// differentiated with respect to both operands as TensorFlow's
	// _SigmoidGradGrad and _TanhGradGrad do: the dy side is the same op
	// applied to the incoming gradient g.
	RegisterGrad("SigmoidGrad", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		y, dy, g := gc.In(0), gc.In(1), og[0]
		gdy := b.Mul(g, dy)
		two := b.Const(tensor.Scalar(2))
		return []graph.Output{b.Sub(gdy, b.Mul(b.Mul(two, gdy), y)), b.Op("SigmoidGrad", nil, y, g)}
	})
	RegisterGrad("TanhGrad", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		y, dy, g := gc.In(0), gc.In(1), og[0]
		minus2 := b.Const(tensor.Scalar(-2))
		return []graph.Output{b.Mul(b.Mul(b.Mul(g, minus2), dy), y), b.Op("TanhGrad", nil, y, g)}
	})
	RegisterGrad("Relu", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		mask := b.Op("Cast", map[string]any{"to": tensor.Float},
			b.Greater(gc.In(0), b.Const(tensor.Scalar(0))))
		return []graph.Output{b.Mul(og[0], mask)}
	})

	// MatMul: C = op(A)·op(B), each op a transpose over the last two axes
	// when the node's transpose_a / transpose_b says so. Both gradients
	// are MatMuls that read their operands where they lie — no Transpose
	// node is built, so a backward loop iteration does not re-materialise
	// a (often loop-invariant) weight's transpose in front of each product:
	//
	//	C = A·B     dA = G·Bᵀ     dB = Aᵀ·G
	//	C = A·Bᵀ    dA = G·B      dB = Gᵀ·A
	//	C = Aᵀ·B    dA = B·Gᵀ     dB = A·G
	//	C = Aᵀ·Bᵀ   dA = Bᵀ·Gᵀ    dB = Gᵀ·Aᵀ
	RegisterGrad("MatMul", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := og[0]
		x, y := gc.In(0), gc.In(1)
		mm := func(p, q graph.Output, tp, tq bool) graph.Output {
			return b.Op("MatMul", map[string]any{"transpose_a": tp, "transpose_b": tq}, p, q)
		}
		ta, tb := gc.Node.AttrBool("transpose_a"), gc.Node.AttrBool("transpose_b")
		switch {
		case !ta && !tb:
			return []graph.Output{mm(g, y, false, true), mm(x, g, true, false)}
		case !ta:
			return []graph.Output{mm(g, y, false, false), mm(g, x, true, false)}
		case !tb:
			return []graph.Output{mm(y, g, false, true), mm(x, g, false, false)}
		}
		return []graph.Output{mm(y, g, true, true), mm(g, x, true, true)}
	})

	RegisterGrad("Transpose", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		perm := gc.Node.AttrsMap()["perm"]
		ps, _ := perm.([]int)
		if len(ps) == 0 {
			return []graph.Output{b.Transpose(og[0])}
		}
		inv := make([]int, len(ps))
		for i, p := range ps {
			inv[p] = i
		}
		return []graph.Output{b.Transpose(og[0], inv...)}
	})

	RegisterGrad("AddN", func(gc *GradCtx, og []graph.Output) []graph.Output {
		out := make([]graph.Output, gc.Node.NumInputs())
		for i := range out {
			out[i] = og[0]
		}
		return out
	})

	RegisterGrad("Sum", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		attrs := map[string]any{
			"axes":      gc.Node.AttrsMap()["axes"],
			"keep_dims": gc.Node.AttrsMap()["keep_dims"],
		}
		g := b.Op("SumGrad", attrs, og[0], b.Op("Shape", nil, gc.In(0)))
		return []graph.Output{g}
	})

	RegisterGrad("Mean", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		attrs := map[string]any{
			"axes":      gc.Node.AttrsMap()["axes"],
			"keep_dims": gc.Node.AttrsMap()["keep_dims"],
		}
		x := gc.In(0)
		spread := b.Op("SumGrad", attrs, og[0], b.Op("Shape", nil, x))
		ratio := b.Div(
			b.Op("Cast", map[string]any{"to": tensor.Float}, b.Op("Size", nil, gc.Out(0))),
			b.Op("Cast", map[string]any{"to": tensor.Float}, b.Op("Size", nil, x)))
		return []graph.Output{b.Mul(spread, ratio)}
	})

	RegisterGrad("Reshape", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := b.Op("Reshape", nil, og[0], b.Op("Shape", nil, gc.In(0)))
		out := []graph.Output{g}
		for i := 1; i < gc.Node.NumInputs(); i++ {
			out = append(out, graph.Output{})
		}
		return out
	})
	RegisterGrad("ExpandDims", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		return []graph.Output{b.Op("Reshape", nil, og[0], b.Op("Shape", nil, gc.In(0)))}
	})
	RegisterGrad("Squeeze", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		return []graph.Output{b.Op("Reshape", nil, og[0], b.Op("Shape", nil, gc.In(0)))}
	})
	RegisterGrad("BroadcastTo", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		return []graph.Output{
			b.Op("UnbroadcastTo", nil, og[0], b.Op("Shape", nil, gc.In(0))),
			{},
		}
	})
	RegisterGrad("UnbroadcastTo", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		return []graph.Output{
			b.Op("BroadcastTo", nil, og[0], b.Op("Shape", nil, gc.In(0))),
			{},
		}
	})

	RegisterGrad("Fill", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		return []graph.Output{{}, b.Op("Sum", map[string]any{}, og[0])}
	})

	RegisterGrad("Concat", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		axis := gc.Node.AttrInt("axis")
		out := make([]graph.Output, gc.Node.NumInputs())
		offset := b.ScalarInt(0)
		for i := range out {
			size := b.Op("ShapeDim", map[string]any{"axis": axis}, gc.In(i))
			out[i] = b.Op("SliceAxis", map[string]any{"axis": axis}, og[0], offset, size)
			offset = b.Add(offset, size)
		}
		return out
	})

	RegisterGrad("Pack", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		n := gc.Node.NumInputs()
		parts := b.OpNode("Unpack", "", map[string]any{"num": n}, og[0])
		out := make([]graph.Output, n)
		if parts == nil {
			return out
		}
		for i := range out {
			out[i] = parts.Out(i)
		}
		return out
	})

	RegisterGrad("Unpack", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		parts := make([]graph.Output, len(og))
		for j, g := range og {
			if g.Node != nil {
				parts[j] = g
			} else {
				parts[j] = b.ZerosLike(gc.Out(j))
			}
		}
		return []graph.Output{b.Op("Pack", nil, parts...)}
	})

	RegisterGrad("Split", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		parts := make([]graph.Output, len(og))
		for j, g := range og {
			if g.Node != nil {
				parts[j] = g
			} else {
				parts[j] = b.ZerosLike(gc.Out(j))
			}
		}
		axis := gc.Node.AttrInt("axis")
		return []graph.Output{b.Op("Concat", map[string]any{"axis": axis}, parts...)}
	})

	RegisterGrad("Gather", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := b.Op("GatherGrad", nil, gc.In(1), og[0], b.Op("Shape", nil, gc.In(0)))
		return []graph.Output{g, {}}
	})

	RegisterGrad("SliceAxis", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		axis := gc.Node.AttrInt("axis")
		return []graph.Output{
			b.Op("SliceAxisGrad", map[string]any{"axis": axis}, og[0], gc.In(0), gc.In(1)),
			{},
			{},
		}
	})

	RegisterGrad("SliceRows", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		return []graph.Output{
			b.Op("SliceRowsGrad", nil, og[0], gc.In(0), gc.In(1)),
			{},
		}
	})

	RegisterGrad("Tile", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		reps := gc.Node.AttrInt("reps")
		return []graph.Output{b.Op("TileGrad", map[string]any{"reps": reps}, og[0], gc.In(0))}
	})

	RegisterGrad("Select", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := og[0]
		z := b.ZerosLike(g)
		return []graph.Output{
			{},
			b.Op("Select", nil, gc.In(0), g, z),
			b.Op("Select", nil, gc.In(0), z, g),
		}
	})

	RegisterGrad("Softmax", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		y := gc.Out(0)
		g := og[0]
		gy := b.Mul(g, y)
		s := b.Op("Sum", map[string]any{"axes": []int{-1}, "keep_dims": true}, gy)
		return []graph.Output{b.Sub(gy, b.Mul(y, s))}
	})

	RegisterGrad("LogSoftmax", func(gc *GradCtx, og []graph.Output) []graph.Output {
		b := gc.B()
		g := og[0]
		sm := b.Op("Softmax", nil, gc.In(0))
		s := b.Op("Sum", map[string]any{"axes": []int{-1}, "keep_dims": true}, g)
		return []graph.Output{b.Sub(g, b.Mul(sm, s))}
	})
}
