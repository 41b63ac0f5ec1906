package ops

import (
	"fmt"
	"slices"

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
	Register(&OpDef{Name: "Const", NumOutputs: 1, Inputs: Exactly(0), Infer: func(c *InferCtx) {
		if t := c.AttrTensor("value"); t != nil {
			c.Out[0] = known(t)
		} else {
			c.Node.Addf(-1, "const-no-value", "Const has no tensor value attribute")
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		v := ctx.AttrTensor("value")
		if v == nil {
			return nil, fmt.Errorf("ops: Const(%s) has no value", ctx.NodeName)
		}
		return ctx.One(TensorVal(v)), nil
	}})

	Register(&OpDef{Name: "Placeholder", NumOutputs: 1, Inputs: Exactly(0), Infer: func(c *InferCtx) {
		if dv, ok := c.Attrs["dtype"].(int); ok {
			c.Out[0].DType, c.Out[0].DTypeOK = tensor.DType(dv), true
		}
		if sv, ok := c.Attrs["shape"].([]int); ok {
			c.Out[0].Shape, c.Out[0].RankOK = sv, true
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		t, ok := ctx.Env.Feed(ctx.NodeName)
		if !ok {
			return nil, fmt.Errorf("ops: placeholder %q was not fed", ctx.NodeName)
		}
		return ctx.One(TensorVal(t)), nil
	}})

	Register(&OpDef{Name: "Identity", NumOutputs: 1, Inputs: Exactly(1), Infer: inferPass, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(ctx.In[0]), nil
	}})

	// StopGradient is an identity through which autodiff does not
	// propagate (e.g. Q-learning target networks).
	Register(&OpDef{Name: "StopGradient", NumOutputs: 1, Inputs: Exactly(1), Infer: inferPass, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(ctx.In[0]), nil
	}})

	Register(&OpDef{Name: "NoOp", NumOutputs: 0, Inputs: Exactly(0), Kernel: func(ctx *KernelContext) ([]Value, error) {
		return nil, nil
	}})

	// Shape, Size and Rank (and ShapeDim) read their input's shape and none
	// of its elements.
	unary("Shape", func(x *tensor.Tensor) (*tensor.Tensor, error) { return tensor.ShapeTensor(x), nil }, func(c *InferCtx) {
		in := c.In(0)
		c.Out[0] = Fact{DType: tensor.Int, DTypeOK: true}
		if in.RankOK {
			c.Out[0].Shape, c.Out[0].RankOK = []int{len(in.Shape)}, true
		}
		if _, ok := in.NumElems(); ok {
			c.Out[0].Val = append([]int{}, in.Shape...)
		}
	})
	unary("Size", func(x *tensor.Tensor) (*tensor.Tensor, error) { return tensor.SizeTensor(x), nil }, func(c *InferCtx) {
		c.Out[0] = ScalarFact(tensor.Int)
		if total, ok := c.In(0).NumElems(); ok {
			c.Out[0].Val = []int{total}
		}
	})
	unary("Rank", func(x *tensor.Tensor) (*tensor.Tensor, error) { return tensor.RankTensor(x), nil }, func(c *InferCtx) {
		c.Out[0] = ScalarFact(tensor.Int)
	})

	// Reshape and UnbroadcastTo change no element when the shapes allow:
	// an input buffer the executor grants is re-shaped in place or handed
	// on as it is, and only a shared one is copied (from the pool).
	Register(&OpDef{Name: "Reshape", NumOutputs: 1, Inputs: Between(1, 2), Infer: inferReshape, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
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
		return ctx.Result(tensor.ReshapeInto(ctx.ForwardableInput(0), x, shape))
	}})

	// Fill(shape, value): the scalar value, of any dtype, in every element.
	Register(&OpDef{Name: "Fill", NumOutputs: 1, Inputs: Exactly(2), Infer: func(c *InferCtx) {
		if v := c.In(1); v.RankOK && len(v.Shape) != 0 {
			c.Node.Addf(1, "fill-value-rank", "value has shape %v; Fill requires a scalar", v.Shape)
		}
		if s, ok := c.InInts(0, 1); ok {
			c.Out[0] = shaped(s, c.In(1))
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		var sbuf [8]int
		shape, err := shapeInput(ctx, 0, sbuf[:0])
		if err != nil {
			return nil, err
		}
		v, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		if v.Rank() != 0 {
			return nil, fmt.Errorf("Fill: value has shape %v, want a scalar", v.Shape())
		}
		return ctx.Result(tensor.BroadcastTo(v, shape))
	}})

	Register(&OpDef{Name: "BroadcastTo", NumOutputs: 1, Inputs: Exactly(2), Infer: inferToShape, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		var sbuf [8]int
		shape, err := shapeInput(ctx, 1, sbuf[:0])
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.BroadcastTo(x, shape))
	}})

	Register(&OpDef{Name: "UnbroadcastTo", NumOutputs: 1, Inputs: Exactly(2), Infer: inferToShape, Fresh: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		g, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		var sbuf [8]int
		shape, err := shapeInput(ctx, 1, sbuf[:0])
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.UnbroadcastInto(ctx.ForwardableInput(0), g, shape))
	}})

	Register(&OpDef{Name: "Concat", NumOutputs: 1, Inputs: AtLeast(1), Infer: inferConcat, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ts := make([]*tensor.Tensor, len(ctx.In))
		for i := range ctx.In {
			t, err := ctx.Input(i)
			if err != nil {
				return nil, err
			}
			ts[i] = t
		}
		return ctx.Result(tensor.Concat(ctx.AttrInt("axis"), ts...))
	}})

	Register(&OpDef{
		Name:   "Split",
		Inputs: Exactly(1),
		Infer: func(c *InferCtx) {
			in, num, axis := c.In(0), c.AttrInt("num"), c.AttrInt("axis")
			if !in.RankOK || num <= 0 || axis < 0 || axis >= len(in.Shape) {
				return
			}
			s := slices.Clone(in.Shape)
			if s[axis] >= 0 && s[axis]%num == 0 {
				s[axis] /= num
			} else {
				s[axis] = -1
			}
			for port := range c.Out {
				c.Out[port] = Fact{DType: in.DType, DTypeOK: in.DTypeOK, Shape: s, RankOK: true}
			}
		},
		VariableOutputs: numAttr,
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
	Register(&OpDef{Name: "Pack", NumOutputs: 1, Inputs: AtLeast(1), Fresh: true, Infer: func(c *InferCtx) {
		elem := c.In(0)
		for i := 1; i < len(c.Ins) && elem.RankOK; i++ {
			j, ok := Join(elem, c.In(i))
			if !ok || len(j.Shape) != len(elem.Shape) {
				return
			}
			elem = j
		}
		if elem.RankOK {
			c.Out[0] = Fact{DType: elem.DType, DTypeOK: elem.DTypeOK, Shape: append([]int{len(c.Ins)}, elem.Shape...), RankOK: true}
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ts := make([]*tensor.Tensor, len(ctx.In))
		for i := range ctx.In {
			t, err := ctx.Input(i)
			if err != nil {
				return nil, err
			}
			ts[i] = t
		}
		return ctx.Result(tensor.Stack(tensor.Alloc, ts...))
	}})

	Register(&OpDef{
		Name:   "Unpack",
		Fresh:  true,
		Inputs: Exactly(1),
		Infer: func(c *InferCtx) {
			if in := c.In(0); in.RankOK && len(in.Shape) >= 1 {
				t := Fact{DType: in.DType, DTypeOK: in.DTypeOK, Shape: slices.Clone(in.Shape[1:]), RankOK: true}
				for port := range c.Out {
					c.Out[port] = t
				}
			}
		},
		VariableOutputs: numAttr,
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

	Register(&OpDef{Name: "Gather", NumOutputs: 1, Inputs: Exactly(2), Infer: func(c *InferCtx) {
		if x, ix := c.In(0), c.In(1); x.RankOK && len(x.Shape) >= 1 && ix.RankOK {
			c.Out[0] = Fact{DType: x.DType, DTypeOK: x.DTypeOK, Shape: append(slices.Clone(ix.Shape), x.Shape[1:]...), RankOK: true}
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		ix, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.Gather(x, ix))
	}})

	Register(&OpDef{Name: "SliceRows", NumOutputs: 1, Inputs: Exactly(2), Infer: func(c *InferCtx) {
		if x := c.In(0); x.RankOK && len(x.Shape) >= 1 {
			c.Out[0] = Fact{DType: x.DType, DTypeOK: x.DTypeOK, Shape: append([]int{c.AttrInt("size")}, x.Shape[1:]...), RankOK: true}
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		start, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.SliceRows(x, int(start.ScalarIntValue()), ctx.AttrInt("size")))
	}})

	// ExpandDims and Squeeze return re-shaped copies from the pool.
	Register(&OpDef{Name: "ExpandDims", NumOutputs: 1, Inputs: Exactly(1), Fresh: true, Infer: func(c *InferCtx) {
		x, axis := c.In(0), c.AttrInt("axis")
		if x.RankOK && axis < 0 {
			axis += len(x.Shape) + 1
		}
		if x.RankOK && axis >= 0 && axis <= len(x.Shape) {
			c.Out[0] = Fact{DType: x.DType, DTypeOK: x.DTypeOK, Shape: slices.Insert(slices.Clone(x.Shape), axis, 1), RankOK: true}
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.ExpandDims(x, ctx.AttrInt("axis")))
	}})

	Register(&OpDef{Name: "Squeeze", NumOutputs: 1, Inputs: Exactly(1), Fresh: true, Infer: inferSqueeze, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.Squeeze(x, ctx.AttrInts("axes")...))
	}})

	// Tile repeats its input reps times along axis 0 (a scalar as a vector).
	Register(&OpDef{Name: "Tile", NumOutputs: 1, Inputs: Exactly(1), Infer: func(c *InferCtx) {
		x, reps := c.In(0), c.AttrInt("reps")
		if !x.RankOK || reps <= 0 {
			return
		}
		s := slices.Clone(x.Shape)
		if len(s) == 0 {
			s = []int{1}
		}
		if s[0] >= 0 {
			s[0] *= reps
		}
		c.Out[0] = Fact{DType: x.DType, DTypeOK: x.DTypeOK, Shape: s, RankOK: true}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.Tile(x, ctx.AttrInt("reps")))
	}})

	Register(&OpDef{Name: "OneHot", NumOutputs: 1, Inputs: Exactly(1), Infer: func(c *InferCtx) {
		if ix := c.In(0); ix.RankOK {
			c.Out[0] = Fact{DType: tensor.Float, DTypeOK: true, Shape: append(slices.Clone(ix.Shape), c.AttrInt("depth")), RankOK: true}
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ix, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.OneHot(ix, ctx.AttrInt("depth")))
	}})

	Register(&OpDef{Name: "RandomUniform", NumOutputs: 1, Inputs: Exactly(0), Infer: inferRandom, Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(TensorVal(tensor.RandUniform(ctx.Env.RNG(), 0, 1, ctx.AttrInts("shape")...))), nil
	}})
	Register(&OpDef{Name: "RandomNormal", NumOutputs: 1, Inputs: Exactly(0), Infer: inferRandom, Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(TensorVal(tensor.RandNormal(ctx.Env.RNG(), 0, 1, ctx.AttrInts("shape")...))), nil
	}})
}

// inferPass forwards what is known about the input, constant and handle
// included.
func inferPass(c *InferCtx) { c.Out[0] = c.InFact(0) }

// inferRandom is a float tensor of the shape attr.
func inferRandom(c *InferCtx) {
	c.Out[0] = Fact{DType: tensor.Float, DTypeOK: true}
	if sv, ok := c.Attrs["shape"].([]int); ok {
		c.Out[0].Shape, c.Out[0].RankOK = sv, true
	}
}

// inferReshape resolves the static or constant target shape, filling a
// single -1 from the input's element count when that is known.
func inferReshape(c *InferCtx) {
	var target []int
	if s, ok := c.Attrs["shape"].([]int); ok && len(c.Ins) == 1 {
		target = slices.Clone(s)
	} else if s, ok := c.InInts(1, 1); ok {
		target = slices.Clone(s)
	} else {
		return
	}
	in := c.In(0)
	wild := -1
	for i, d := range target {
		if d < 0 {
			if wild >= 0 {
				return // two unknowns: unresolvable
			}
			wild = i
		}
	}
	if total, ok := in.NumElems(); wild >= 0 && ok {
		rest := 1
		for i, d := range target {
			if i != wild {
				rest *= d
			}
		}
		if rest > 0 && total%rest == 0 {
			target[wild] = total / rest
		}
	}
	c.Out[0] = Fact{DType: in.DType, DTypeOK: in.DTypeOK, Shape: target, RankOK: true}
}

// inferConcat sums the concat axis over the input shapes.
func inferConcat(c *InferCtx) {
	axis, first := c.AttrInt("axis"), c.In(0)
	if !first.RankOK || axis < 0 || axis >= len(first.Shape) {
		return
	}
	out := slices.Clone(first.Shape)
	for i := 1; i < len(c.Ins); i++ {
		t := c.In(i)
		if !t.RankOK || len(t.Shape) != len(out) {
			return
		}
		for d, v := range t.Shape {
			switch {
			case d == axis && out[d] >= 0 && v >= 0:
				out[d] += v
			case d == axis || out[d] != v:
				out[d] = -1
			}
		}
	}
	c.Out[0] = Fact{DType: first.DType, DTypeOK: first.DTypeOK, Shape: out, RankOK: true}
}

// inferSqueeze drops the axes attr's dims, or every dim of 1 when it names
// none (which needs every dim known).
func inferSqueeze(c *InferCtx) {
	x, axes := c.In(0), c.AttrInts("axes")
	if !x.RankOK {
		return
	}
	drop := make([]bool, len(x.Shape))
	for i, d := range x.Shape {
		if len(axes) == 0 && d < 0 {
			return
		}
		drop[i] = len(axes) == 0 && d == 1
	}
	for _, a := range axes {
		if a < 0 {
			a += len(x.Shape)
		}
		if a < 0 || a >= len(x.Shape) {
			return
		}
		drop[a] = true
	}
	s := []int{}
	for i, d := range x.Shape {
		if !drop[i] {
			s = append(s, d)
		}
	}
	c.Out[0] = Fact{DType: x.DType, DTypeOK: x.DTypeOK, Shape: s, RankOK: true}
}

// numAttr is the output arity of Split and Unpack: their num attr.
func numAttr(attrs map[string]any) int {
	if n, ok := attrs["num"].(int); ok {
		return n
	}
	return 1
}
