package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// unary registers a one-input one-output tensor op whose kernel returns a
// freshly allocated output and retains no input reference.
func unary(name string, fn func(*tensor.Tensor) (*tensor.Tensor, error)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := fn(x)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})
}

// unaryFwd registers a fresh unary op with an output-forwarding fast path:
// when the executor owns the input buffer exclusively, the kernel writes
// its result in place instead of allocating.
func unaryFwd(name string, into func(dst, t *tensor.Tensor) (*tensor.Tensor, error)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := into(ctx.ForwardableInput(0), x)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})
}

// binary registers a two-input one-output tensor op whose kernel returns a
// freshly allocated output and retains no input reference.
func binary(name string, fn func(a, b *tensor.Tensor) (*tensor.Tensor, error)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		a, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		r, err := fn(a, b)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})
}

// binaryFwd registers a fresh binary op with an output-forwarding fast
// path: an exclusively-owned input buffer of the right shape becomes the
// output buffer (TF-style buffer forwarding), preferring input 0.
func binaryFwd(name string, into func(dst, a, b *tensor.Tensor) (*tensor.Tensor, error)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
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
		r, err := into(dst, a, b)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})
}

func init() {
	binaryFwd("Add", tensor.AddInto)
	binaryFwd("Sub", tensor.SubInto)
	binaryFwd("Mul", tensor.MulInto)
	binaryFwd("Div", tensor.DivInto)
	binaryFwd("Pow", tensor.PowInto)
	binaryFwd("Maximum", tensor.MaximumInto)
	binaryFwd("Minimum", tensor.MinimumInto)
	binaryFwd("Mod", tensor.ModInto)
	// The gradients of Sigmoid and Tanh from their output y and the
	// incoming gradient dy, TensorFlow's names and operand order.
	binaryFwd("SigmoidGrad", tensor.SigmoidGradInto)
	binaryFwd("TanhGrad", tensor.TanhGradInto)
	// MatMul reads either operand transposed over its last two axes when
	// the node says so (transpose_a / transpose_b, set by the MatMul
	// gradient), so no Transpose node
	// has to materialise what the kernel can read in place.
	Register(&OpDef{Name: "MatMul", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		a, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		r, err := tensor.MatMulT(a, b, ctx.AttrBool("transpose_a"), ctx.AttrBool("transpose_b"))
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})
	binary("Greater", tensor.Greater)
	binary("GreaterEqual", tensor.GreaterEqual)
	binary("Less", tensor.Less)
	binary("LessEqual", tensor.LessEqual)
	binary("Equal", tensor.EqualElems)
	binary("NotEqual", tensor.NotEqual)
	binary("LogicalAnd", tensor.LogicalAnd)
	binary("LogicalOr", tensor.LogicalOr)

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
	unary("LogicalNot", tensor.LogicalNot)
	unary("Softmax", tensor.Softmax)
	unary("LogSoftmax", tensor.LogSoftmax)
	unary("ZerosLike", func(t *tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.NewFromPool(t.DType(), t.ShapeRef()...), nil
	})
	unary("OnesLike", func(t *tensor.Tensor) (*tensor.Tensor, error) { return tensor.OnesLike(t), nil })

	Register(&OpDef{Name: "AddN", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
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
		r, err := tensor.AddN(ts...)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "Select", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
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
		r, err := tensor.Select(c, a, b)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	reduceOp("Sum", tensor.ReduceSum)
	reduceOp("Mean", tensor.ReduceMean)
	reduceOp("Max", tensor.ReduceMax)
	reduceOp("Min", tensor.ReduceMin)

	Register(&OpDef{Name: "ArgMax", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := tensor.ArgMax(x, ctx.AttrInt("axis"))
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "Transpose", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := tensor.Transpose(x, ctx.AttrInts("perm")...)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "Cast", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		to, ok := ctx.Attrs["to"].(tensor.DType)
		if !ok {
			return nil, fmt.Errorf("ops: Cast(%s) missing 'to' dtype attr", ctx.NodeName)
		}
		r, err := tensor.Cast(x, to)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})
}

// reduceOp kernels return fresh outputs, so the executor can recycle their
// (often much larger) owned input buffers into the pool.
func reduceOp(name string, fn func(t *tensor.Tensor, axes []int, keep bool) (*tensor.Tensor, error)) {
	Register(&OpDef{Name: name, NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := fn(x, ctx.AttrInts("axes"), ctx.AttrBool("keep_dims"))
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})
}
