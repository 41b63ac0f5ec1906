package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// shapeInput reads input i, an int tensor, as a shape, stored in buf when it
// is large enough.
func shapeInput(ctx *KernelContext, i int, buf []int) ([]int, error) {
	t, err := ctx.Input(i)
	if err != nil {
		return nil, err
	}
	for _, d := range t.I {
		buf = append(buf, int(d))
	}
	return buf, nil
}

func init() {
	Register(&OpDef{Name: "Const", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		v := ctx.AttrTensor("value")
		if v == nil {
			return nil, fmt.Errorf("ops: Const(%s) has no value", ctx.NodeName)
		}
		return ctx.One(TensorVal(v)), nil
	}})

	Register(&OpDef{Name: "Placeholder", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		t, ok := ctx.Env.Feed(ctx.NodeName)
		if !ok {
			return nil, fmt.Errorf("ops: placeholder %q was not fed", ctx.NodeName)
		}
		return ctx.One(TensorVal(t)), nil
	}})

	Register(&OpDef{Name: "Identity", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(ctx.In[0]), nil
	}})

	// StopGradient is an identity through which autodiff does not
	// propagate (e.g. Q-learning target networks).
	Register(&OpDef{Name: "StopGradient", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(ctx.In[0]), nil
	}})

	Register(&OpDef{Name: "NoOp", NumOutputs: 0, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return nil, nil
	}})

	// Shape, Size and Rank (and ShapeDim) read their input's shape and none
	// of its elements.
	Register(&OpDef{Name: "Shape", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(tensor.ShapeTensor(x))), nil
	}})
	Register(&OpDef{Name: "Size", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(tensor.SizeTensor(x))), nil
	}})
	Register(&OpDef{Name: "Rank", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(tensor.RankTensor(x))), nil
	}})

	// Reshape and UnbroadcastTo change no element when the shapes allow:
	// an input buffer the executor grants is re-shaped in place or handed
	// on as it is, and only a shared one is copied (from the pool).
	Register(&OpDef{Name: "Reshape", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		shape := ctx.AttrInts("shape")
		var sbuf [8]int
		if len(ctx.In) > 1 { // dynamic shape input
			if shape, err = shapeInput(ctx, 1, sbuf[:0]); err != nil {
				return nil, err
			}
		}
		r, err := tensor.ReshapeInto(ctx.ForwardableInput(0), x, shape)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "Fill", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		var sbuf [8]int
		shape, err := shapeInput(ctx, 0, sbuf[:0])
		if err != nil {
			return nil, err
		}
		v, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(tensor.Full(v.ScalarValue(), shape...))), nil
	}})

	Register(&OpDef{Name: "BroadcastTo", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		var sbuf [8]int
		shape, err := shapeInput(ctx, 1, sbuf[:0])
		if err != nil {
			return nil, err
		}
		r, err := tensor.BroadcastTo(x, shape)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "UnbroadcastTo", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		g, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		var sbuf [8]int
		shape, err := shapeInput(ctx, 1, sbuf[:0])
		if err != nil {
			return nil, err
		}
		r, err := tensor.UnbroadcastInto(ctx.ForwardableInput(0), g, shape)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "Concat", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ts := make([]*tensor.Tensor, len(ctx.In))
		for i := range ctx.In {
			t, err := ctx.Input(i)
			if err != nil {
				return nil, err
			}
			ts[i] = t
		}
		r, err := tensor.Concat(ctx.AttrInt("axis"), ts...)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{
		Name: "Split",
		VariableOutputs: func(attrs map[string]any) int {
			if n, ok := attrs["num"].(int); ok {
				return n
			}
			return 1
		},
		Kernel: func(ctx *KernelContext) ([]Value, error) {
			x, err := ctx.Input(0)
			if err != nil {
				return nil, err
			}
			parts, err := tensor.Split(x, ctx.AttrInt("num"), ctx.AttrInt("axis"))
			if err != nil {
				return nil, err
			}
			out := make([]Value, len(parts))
			for i, p := range parts {
				out[i] = TensorVal(p)
			}
			return out, nil
		},
	})

	// Pack and Unpack copy every element and keep nothing.
	Register(&OpDef{Name: "Pack", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ts := make([]*tensor.Tensor, len(ctx.In))
		for i := range ctx.In {
			t, err := ctx.Input(i)
			if err != nil {
				return nil, err
			}
			ts[i] = t
		}
		r, err := tensor.Stack(tensor.Alloc, ts...)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{
		Name:  "Unpack",
		Fresh: true,
		VariableOutputs: func(attrs map[string]any) int {
			if n, ok := attrs["num"].(int); ok {
				return n
			}
			return 1
		},
		Kernel: func(ctx *KernelContext) ([]Value, error) {
			x, err := ctx.Input(0)
			if err != nil {
				return nil, err
			}
			parts, err := tensor.Unstack(tensor.Alloc, x)
			if err != nil {
				return nil, err
			}
			if n := ctx.AttrInt("num"); n != len(parts) {
				return nil, fmt.Errorf("ops: Unpack(%s) expected %d parts, got %d", ctx.NodeName, n, len(parts))
			}
			out := make([]Value, len(parts))
			for i, p := range parts {
				out[i] = TensorVal(p)
			}
			return out, nil
		},
	})

	Register(&OpDef{Name: "Gather", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		ix, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		r, err := tensor.Gather(x, ix)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "SliceRows", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		start, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		r, err := tensor.SliceRows(x, int(start.ScalarIntValue()), ctx.AttrInt("size"))
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	// ExpandDims and Squeeze return re-shaped copies from the pool.
	Register(&OpDef{Name: "ExpandDims", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := tensor.ExpandDims(x, ctx.AttrInt("axis"))
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "Squeeze", NumOutputs: 1, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := tensor.Squeeze(x, ctx.AttrInts("axes")...)
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "Tile", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := tensor.Tile(x, ctx.AttrInt("reps"))
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "OneHot", NumOutputs: 1, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ix, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		r, err := tensor.OneHot(ix, ctx.AttrInt("depth"))
		if err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(r)), nil
	}})

	Register(&OpDef{Name: "RandomUniform", NumOutputs: 1, Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(TensorVal(tensor.RandUniform(ctx.Env.RNG(), 0, 1, ctx.AttrInts("shape")...))), nil
	}})
	Register(&OpDef{Name: "RandomNormal", NumOutputs: 1, Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(TensorVal(tensor.RandNormal(ctx.Env.RNG(), 0, 1, ctx.AttrInts("shape")...))), nil
	}})
}
