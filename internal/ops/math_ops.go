package ops

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// unary registers a one-input one-output tensor op whose kernel returns a
// freshly allocated output and retains no input reference.
func unary(name string, fn func(*tensor.Tensor) (*tensor.Tensor, error), infer func(*InferCtx)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Inputs: Exactly(1), Infer: infer, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(fn(x))
	}})
}

// unaryFwd registers a fresh element-wise numeric unary op with an
// output-forwarding fast path: when the executor owns the input buffer
// exclusively, the kernel writes its result in place instead of allocating.
func unaryFwd(name string, into func(dst, t *tensor.Tensor) (*tensor.Tensor, error)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Inputs: Exactly(1), Infer: inferNumeric, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(into(ctx.ForwardableInput(0), x))
	}})
}

// binary registers a two-input one-output tensor op whose kernel returns a
// freshly allocated output and retains no input reference.
func binary(name string, fn func(a, b *tensor.Tensor) (*tensor.Tensor, error), infer func(*InferCtx)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Inputs: Exactly(2), Infer: infer, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		a, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		return ctx.Result(fn(a, b))
	}})
}

// binaryFwd registers a fresh binary op with an output-forwarding fast
// path: an exclusively-owned input buffer of the right shape becomes the
// output buffer (TF-style buffer forwarding), preferring input 0.
func binaryFwd(name string, into func(dst, a, b *tensor.Tensor) (*tensor.Tensor, error), infer func(*InferCtx)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Inputs: Exactly(2), Infer: infer, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		a, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		dst := ctx.ForwardableInput(0)
		if dst == nil {
			dst = ctx.ForwardableInput(1)
		}
		return ctx.Result(into(dst, a, b))
	}})
}

func init() {
	binaryFwd("Add", tensor.AddInto, inferArith)
	binaryFwd("Sub", tensor.SubInto, inferArith)
	binaryFwd("Mul", tensor.MulInto, inferArith)
	binaryFwd("Div", tensor.DivInto, inferArith)
	binaryFwd("Pow", tensor.PowInto, inferArith)
	binaryFwd("Maximum", tensor.MaximumInto, inferArith)
	binaryFwd("Minimum", tensor.MinimumInto, inferArith)
	binaryFwd("Mod", tensor.ModInto, inferArith)
	// The gradients of Sigmoid and Tanh from their output y and the
	// incoming gradient dy, TensorFlow's names and operand order.
	binaryFwd("SigmoidGrad", tensor.SigmoidGradInto, inferActGrad)
	binaryFwd("TanhGrad", tensor.TanhGradInto, inferActGrad)
	// MatMul reads either operand transposed over its last two axes when
	// the node says so (transpose_a / transpose_b, set by the MatMul
	// gradient), so no Transpose node
	// has to materialise what the kernel can read in place.
	Register(&OpDef{Name: "MatMul", NumOutputs: 1, Inputs: Exactly(2), Infer: inferMatMul, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		a, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.MatMulT(a, b, ctx.AttrBool("transpose_a"), ctx.AttrBool("transpose_b")))
	}})
	binary("Greater", tensor.Greater, inferCompare)
	binary("GreaterEqual", tensor.GreaterEqual, inferCompare)
	binary("Less", tensor.Less, inferCompare)
	binary("LessEqual", tensor.LessEqual, inferCompare)
	binary("Equal", tensor.EqualElems, inferCompare)
	binary("NotEqual", tensor.NotEqual, inferCompare)
	binary("LogicalAnd", tensor.LogicalAnd, inferLogical)
	binary("LogicalOr", tensor.LogicalOr, inferLogical)

	unaryFwd("Neg", tensor.NegInto)
	unaryFwd("Abs", tensor.AbsInto)
	unaryFwd("Exp", tensor.ExpInto)
	unaryFwd("Log", tensor.LogInto)
	unaryFwd("Sqrt", tensor.SqrtInto)
	unaryFwd("Square", tensor.SquareInto)
	unaryFwd("Sigmoid", tensor.SigmoidInto)
	unaryFwd("Tanh", tensor.TanhInto)
	unaryFwd("Relu", tensor.ReluInto)
	unaryFwd("Sign", tensor.SignInto)
	unary("LogicalNot", tensor.LogicalNot, func(c *InferCtx) {
		in := c.In(0)
		if in.DTypeOK && in.DType != tensor.Bool {
			c.Node.Addf(0, "logical-dtype", "operand is %s; LogicalNot requires bool", in.DType)
		}
		in.DType, in.DTypeOK = tensor.Bool, true
		c.Out[0] = in
	})
	unary("Softmax", tensor.Softmax, inferNumeric)
	unary("LogSoftmax", tensor.LogSoftmax, inferNumeric)
	unary("ZerosLike", func(t *tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.NewFromPool(t.DType(), t.ShapeRef()...), nil
	}, inferLikeInput(0))
	unary("OnesLike", func(t *tensor.Tensor) (*tensor.Tensor, error) { return tensor.OnesLike(t), nil }, inferLikeInput(0))

	// AddN's output is the join of its operands: a sum carries no
	// operand's constant.
	Register(&OpDef{Name: "AddN", NumOutputs: 1, Inputs: AtLeast(1), Fresh: true, Infer: func(c *InferCtx) {
		acc := c.In(0)
		for i := 1; i < len(c.Ins); i++ {
			j, ok := Join(acc, c.In(i))
			if !ok {
				c.Node.Addf(i, "dtype-mismatch", "input %s is %s but earlier inputs are %s", c.Node.InputName(i), c.Ins[i].DType, acc.DType)
				return
			}
			acc = j
		}
		c.Out[0] = acc
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ts := make([]*tensor.Tensor, len(ctx.In))
		for i := range ctx.In {
			t, err := ctx.Input(i)
			if err != nil {
				return nil, err
			}
			ts[i] = t
		}
		// Forwarding fast path: accumulate directly into an
		// exclusively-owned first input.
		if dst := ctx.ForwardableInput(0); dst != nil && dst.DType() == tensor.Float {
			ok := true
			for _, t := range ts[1:] {
				if t.DType() != tensor.Float || !tensor.SameShape(dst, t) {
					ok = false
					break
				}
			}
			if ok {
				for _, t := range ts[1:] {
					if err := tensor.AccumulateInto(dst, t); err != nil {
						return nil, err
					}
				}
				return ctx.One(TensorVal(dst)), nil
			}
		}
		return ctx.Result(tensor.AddN(ts...))
	}})

	Register(&OpDef{Name: "Select", NumOutputs: 1, Inputs: Exactly(3), Fresh: true, Infer: func(c *InferCtx) {
		pred, x, y := c.In(0), c.In(1), c.In(2)
		if pred.DTypeOK && pred.DType != tensor.Bool {
			c.Node.Addf(0, "select-pred-dtype", "condition is %s; Select requires bool", pred.DType)
		}
		out, ok := Join(x, y)
		if !ok {
			c.Node.Addf(2, "dtype-mismatch", "branches are %s and %s; Select requires matching dtypes", x.DType, y.DType)
			return
		}
		c.Out[0] = out
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		c, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		a, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Input(2)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.Select(c, a, b))
	}})

	reduceOp("Sum", tensor.ReduceSum)
	reduceOp("Mean", tensor.ReduceMean)
	reduceOp("Max", tensor.ReduceMax)
	reduceOp("Min", tensor.ReduceMin)

	Register(&OpDef{Name: "ArgMax", NumOutputs: 1, Inputs: Exactly(1), Fresh: true, Infer: func(c *InferCtx) {
		in := c.In(0)
		c.Out[0] = Fact{DType: tensor.Int, DTypeOK: true}
		if !in.RankOK {
			return
		}
		axis, rank := c.AttrInt("axis"), len(in.Shape)
		if axis < 0 {
			axis += rank
		}
		if axis < 0 || axis >= rank {
			c.Node.Addf(0, "reduce-axis", "axis %d out of range for rank-%d input", c.AttrInt("axis"), rank)
			return
		}
		c.Out[0].Shape, c.Out[0].RankOK = append(slices.Clone(in.Shape[:axis]), in.Shape[axis+1:]...), true
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.ArgMax(x, ctx.AttrInt("axis")))
	}})

	Register(&OpDef{Name: "Transpose", NumOutputs: 1, Inputs: Exactly(1), Fresh: true, Infer: func(c *InferCtx) {
		in, perm := c.In(0), c.AttrInts("perm")
		c.Out[0] = Fact{DType: in.DType, DTypeOK: in.DTypeOK}
		if !in.RankOK || len(perm) == 0 {
			return
		}
		if len(perm) != len(in.Shape) {
			c.Node.Addf(0, "transpose-perm", "perm %v does not match rank-%d input", perm, len(in.Shape))
			return
		}
		shape := make([]int, len(perm))
		for i, p := range perm {
			if p < 0 || p >= len(in.Shape) {
				c.Node.Addf(0, "transpose-perm", "perm %v indexes outside rank-%d input", perm, len(in.Shape))
				return
			}
			shape[i] = in.Shape[p]
		}
		c.Out[0].Shape, c.Out[0].RankOK = shape, true
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.Transpose(x, ctx.AttrInts("perm")...))
	}})

	Register(&OpDef{Name: "Cast", NumOutputs: 1, Inputs: Exactly(1), Fresh: true, Infer: func(c *InferCtx) {
		in := c.In(0)
		c.Out[0] = Fact{Shape: in.Shape, RankOK: in.RankOK}
		switch to := c.Attrs["to"].(type) {
		case tensor.DType:
			c.Out[0].DType, c.Out[0].DTypeOK = to, true
		case int:
			c.Out[0].DType, c.Out[0].DTypeOK = tensor.DType(to), true
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		to, ok := ctx.Attrs["to"].(tensor.DType)
		if !ok {
			return nil, fmt.Errorf("ops: Cast(%s) missing 'to' dtype attr", ctx.NodeName)
		}
		return ctx.Result(tensor.Cast(x, to))
	}})
}

// reduceOp kernels return fresh outputs, so the executor can recycle their
// (often much larger) owned input buffers into the pool.
func reduceOp(name string, fn func(t *tensor.Tensor, axes []int, keep bool) (*tensor.Tensor, error)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Inputs: Exactly(1), Infer: inferReduce, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(fn(x, ctx.AttrInts("axes"), ctx.AttrBool("keep_dims")))
	}})
}

// inferMatMul is MatMul's rule: matrices, or batches of them (rank 3,
// leading axis shared); the node's transpose_a / transpose_b say how each
// operand's last two axes are stored.
func inferMatMul(c *InferCtx) {
	a, b := c.In(0), c.In(1)
	if a.DTypeOK && b.DTypeOK && a.DType != b.DType {
		c.Node.Addf(1, "dtype-mismatch", "operands are %s and %s; MatMul requires matching dtypes", a.DType, b.DType)
	}
	out := &c.Out[0]
	if a.DTypeOK {
		out.DType, out.DTypeOK = a.DType, true
	} else if b.DTypeOK {
		out.DType, out.DTypeOK = b.DType, true
	}
	for i, t := range [...]Fact{a, b} {
		if t.RankOK && len(t.Shape) != 2 && len(t.Shape) != 3 {
			c.Node.Addf(i, "matmul-rank", "operand %s has rank %d; MatMul requires matrices or rank-3 batches of them", c.Node.InputName(i), len(t.Shape))
		}
	}
	r := len(a.Shape)
	if !a.RankOK || !b.RankOK || r != 2 && r != 3 {
		return
	}
	if len(b.Shape) != r {
		c.Node.Addf(1, "matmul-rank", "operands have ranks %d and %d; MatMul requires equal ranks", r, len(b.Shape))
		return
	}
	ta, tb := c.AttrBool("transpose_a"), c.AttrBool("transpose_b")
	m, k := a.Shape[r-2], a.Shape[r-1]
	if ta {
		m, k = k, m
	}
	k2, cols := b.Shape[r-2], b.Shape[r-1]
	if tb {
		k2, cols = cols, k2
	}
	if k >= 0 && k2 >= 0 && k != k2 {
		c.Node.Addf(1, "matmul-inner", "inner dimensions disagree: %v x %v (transpose_a %t, transpose_b %t)", a.Shape, b.Shape, ta, tb)
	}
	out.Shape, out.RankOK = []int{m, cols}, true
	if r == 3 {
		batch := a.Shape[0]
		if batch >= 0 && b.Shape[0] >= 0 && batch != b.Shape[0] {
			c.Node.Addf(1, "matmul-inner", "batch dimensions disagree: %v x %v", a.Shape, b.Shape)
		} else if batch < 0 {
			batch = b.Shape[0]
		}
		out.Shape = []int{batch, m, cols}
	}
}
