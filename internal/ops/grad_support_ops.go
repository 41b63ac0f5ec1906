package ops

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// Kernels that exist to support gradient computation: shape-driven
// broadcast inverses, slicing by runtime offsets, and scatter for Gather.

func init() {
	// SumGrad(g, shape) with attrs axes/keep_dims: gradient of a Sum
	// reduction — reshape g to the keep-dims form and broadcast to the
	// input shape.
	Register(&OpDef{Name: "SumGrad", NumOutputs: 1, Inputs: Exactly(2), Infer: inferToShape, Kernel: func(ctx *KernelContext) ([]Value, error) {
		g, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		shape, err := shapeInput(ctx, 1, nil)
		if err != nil {
			return nil, err
		}
		axes := ctx.AttrInts("axes")
		keep := ctx.AttrBool("keep_dims")
		// Rebuild the keep-dims shape of the reduction output.
		reduced := make([]bool, len(shape))
		if len(axes) == 0 {
			for i := range reduced {
				reduced[i] = true
			}
		} else {
			for _, a := range axes {
				if a < 0 {
					a += len(shape)
				}
				if a < 0 || a >= len(shape) {
					return nil, fmt.Errorf("ops: SumGrad axis %d out of range for %v", a, shape)
				}
				reduced[a] = true
			}
		}
		keepShape := make([]int, len(shape))
		for i, d := range shape {
			if reduced[i] {
				keepShape[i] = 1
			} else {
				keepShape[i] = d
			}
		}
		gk := g
		if !keep {
			gk, err = g.Reshape(keepShape...)
			if err != nil {
				return nil, fmt.Errorf("ops: SumGrad reshape: %w", err)
			}
		}
		r, err := tensor.BroadcastTo(gk, shape)
		if gk != g {
			tensor.Recycle(gk) // the re-shaped copy was this call's own
		}
		return ctx.Result(r, err)
	}})

	// GatherGrad(indices, g, shape) scatters g rows into a zero tensor of
	// the given shape (the gradient of Gather along axis 0).
	Register(&OpDef{Name: "GatherGrad", NumOutputs: 1, Inputs: Exactly(3), Infer: func(c *InferCtx) {
		if s, ok := c.InInts(2, 1); ok {
			c.Out[0] = shaped(s, c.In(1))
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ix, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		g, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		shape, err := shapeInput(ctx, 2, nil)
		if err != nil {
			return nil, err
		}
		if len(shape) == 0 {
			return nil, fmt.Errorf("ops: GatherGrad(%s) into a scalar", ctx.NodeName)
		}
		// ScatterAddRows reads indices and updates in flat order, row by
		// row of out, whatever their ranks: no re-shaped copies needed.
		out := tensor.Zeros(shape...)
		if err := tensor.ScatterAddRows(out, ix, g); err != nil {
			return nil, err
		}
		return ctx.One(TensorVal(out)), nil
	}})

	// ShapeDim(x) attr axis: one dimension of x's shape as an int scalar.
	Register(&OpDef{Name: "ShapeDim", NumOutputs: 1, Inputs: Exactly(1), Fresh: true, Infer: func(c *InferCtx) {
		c.Out[0] = ScalarFact(tensor.Int)
		if x, a := c.In(0), c.AttrInt("axis"); x.RankOK {
			if a < 0 {
				a += len(x.Shape)
			}
			if a >= 0 && a < len(x.Shape) && x.Shape[a] >= 0 {
				c.Out[0].Val = []int{x.Shape[a]}
			}
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		a := ctx.AttrInt("axis")
		if a < 0 {
			a += x.Rank()
		}
		if a < 0 || a >= x.Rank() {
			return nil, fmt.Errorf("ops: ShapeDim axis %d out of range for %v", a, x.Shape())
		}
		return ctx.One(TensorVal(tensor.DimTensor(x, a))), nil
	}})

	// SliceAxis(x, begin, size) attr axis: a contiguous slab along one
	// axis with runtime offset/extent (used by Concat's gradient).
	Register(&OpDef{Name: "SliceAxis", NumOutputs: 1, Inputs: Exactly(3), Infer: func(c *InferCtx) {
		// The extent along axis is known when size is a constant.
		x, axis := c.In(0), c.AttrInt("axis")
		if x.RankOK && axis < 0 {
			axis += len(x.Shape)
		}
		if x.RankOK && axis >= 0 && axis < len(x.Shape) {
			s := slices.Clone(x.Shape)
			s[axis] = -1
			if v, ok := c.InInts(2, 0); ok {
				s[axis] = v[0]
			}
			c.Out[0] = Fact{DType: x.DType, DTypeOK: x.DTypeOK, Shape: s, RankOK: true}
		}
	}, Kernel: func(ctx *KernelContext) ([]Value, error) {
		x, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		beginT, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		sizeT, err := ctx.Input(2)
		if err != nil {
			return nil, err
		}
		axis := ctx.AttrInt("axis")
		if axis < 0 {
			axis += x.Rank()
		}
		if axis < 0 || axis >= x.Rank() {
			return nil, fmt.Errorf("ops: SliceAxis axis %d out of range for %v", axis, x.Shape())
		}
		begin := int(beginT.ScalarIntValue())
		size := int(sizeT.ScalarIntValue())
		if axis == 0 {
			return ctx.Result(tensor.SliceRows(x, begin, size))
		}
		// Transpose axis to the front, slice, transpose back.
		perm, inv := axisFirst(x.Rank(), axis)
		xt, err := tensor.Transpose(x, perm...)
		if err != nil {
			return nil, err
		}
		st, err := tensor.SliceRows(xt, begin, size)
		if err != nil {
			return nil, err
		}
		return ctx.Result(tensor.Transpose(st, inv...))
	}})

	// SliceAxisGrad(g, x, begin) attr axis: zeros like x with the slab
	// [begin, begin+extent(g)) along axis set to g (gradient of
	// SliceAxis).
	Register(&OpDef{Name: "SliceAxisGrad", NumOutputs: 1, Inputs: Exactly(3), Infer: inferLikeInput(1), Kernel: func(ctx *KernelContext) ([]Value, error) {
		g, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		x, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		beginT, err := ctx.Input(2)
		if err != nil {
			return nil, err
		}
		axis := ctx.AttrInt("axis")
		if axis < 0 {
			axis += x.Rank()
		}
		begin := int(beginT.ScalarIntValue())
		// Move axis to front on both, scatter rows, move back.
		perm, inv := axisFirst(x.Rank(), axis)
		xt, err := tensor.Transpose(x, perm...)
		if err != nil {
			return nil, err
		}
		gt, err := tensor.Transpose(g, perm...)
		if err != nil {
			return nil, err
		}
		out := tensor.ZerosLike(xt)
		inner := xt.Size() / xt.Dim(0)
		copy(out.F[begin*inner:], gt.F)
		return ctx.Result(tensor.Transpose(out, inv...))
	}})

	// SliceRowsGrad(g, x, begin): zeros like x with rows [begin,
	// begin+rows(g)) set to g (gradient of SliceRows).
	Register(&OpDef{Name: "SliceRowsGrad", NumOutputs: 1, Inputs: Exactly(3), Infer: inferLikeInput(1), Kernel: func(ctx *KernelContext) ([]Value, error) {
		g, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		x, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		beginT, err := ctx.Input(2)
		if err != nil {
			return nil, err
		}
		begin := int(beginT.ScalarIntValue())
		out := tensor.ZerosLike(x)
		inner := x.Size() / x.Dim(0)
		copy(out.F[begin*inner:], g.F)
		return ctx.One(TensorVal(out)), nil
	}})

	// TileGrad(g, x) attr reps: sums the reps copies (gradient of Tile
	// along axis 0).
	Register(&OpDef{Name: "TileGrad", NumOutputs: 1, Inputs: Exactly(2), Infer: inferLikeInput(1), Kernel: func(ctx *KernelContext) ([]Value, error) {
		g, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		x, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		reps := ctx.AttrInt("reps")
		if reps <= 0 || g.Size() != x.Size()*reps {
			return nil, fmt.Errorf("ops: TileGrad reps=%d g=%v x=%v", reps, g.Shape(), x.Shape())
		}
		out := tensor.ZerosLike(x)
		n := x.Size()
		for r := 0; r < reps; r++ {
			for i := 0; i < n; i++ {
				out.F[i] += g.F[r*n+i]
			}
		}
		return ctx.One(TensorVal(out)), nil
	}})
}

// axisFirst is the permutation that moves axis to the front of a rank-r
// tensor, and its inverse.
func axisFirst(r, axis int) (perm, inv []int) {
	perm, inv = append(make([]int, 0, r), axis), make([]int, r)
	for i := range r {
		if i != axis {
			perm = append(perm, i)
		}
	}
	for i, p := range perm {
		inv[p] = i
	}
	return perm, inv
}
