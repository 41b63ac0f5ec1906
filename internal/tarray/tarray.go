// Package tarray implements TensorArray objects (§2.1 and §5.2 of the
// paper): arrays of tensors with random read/write access that can be used
// inside loops in a differentiable way.
//
// Each location may be written at most once in a forward computation (the
// §5.2 requirement); reads are unrestricted. The gradient TensorArray of a
// forward TensorArray accumulates (sums) multiple writes to the same
// location, which is what makes multiple forward reads of one location
// differentiate correctly.
//
// Operations take and produce a scalar "flow" tensor that the high-level
// wrappers thread through loop iterations, giving the executor the ordering
// edges it needs while keeping reads and writes as parallel as the data
// dependencies allow.
package tarray

import (
	"fmt"
	"sync"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Res is the TensorArray resource.
type Res struct {
	name string
	// accumulate makes writes to an already-written location add instead
	// of failing; set for gradient TensorArrays.
	accumulate bool
	// forward, for gradient arrays, references the array being
	// differentiated: the gradient array's size follows the forward
	// array's (which may grow via a later-ordered unstack even though
	// the gradient handle was created from the pre-unstack flow).
	forward *Res

	mu      sync.Mutex
	elems   []*tensor.Tensor
	written []bool
	grads   map[string]*Res // gradient arrays by source, created lazily
}

// syncSize grows a gradient array to its forward array's current size.
// Callers must hold a.mu.
func (a *Res) syncSize() {
	if a.forward == nil {
		return
	}
	n := a.forward.Size()
	for len(a.elems) < n {
		a.elems = append(a.elems, nil)
		a.written = append(a.written, false)
	}
}

// New returns a TensorArray of the given size.
func New(name string, size int, accumulate bool) *Res {
	return &Res{
		name:       name,
		accumulate: accumulate,
		elems:      make([]*tensor.Tensor, size),
		written:    make([]bool, size),
		grads:      map[string]*Res{},
	}
}

// ResourceName implements ops.Resource.
func (a *Res) ResourceName() string { return "tensorarray/" + a.name }

// Size returns the array length.
func (a *Res) Size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.elems)
}

// Write stores v at index ix. Writing an already-written location is an
// error unless the array accumulates (gradient arrays).
func (a *Res) Write(ix int, v *tensor.Tensor, mem ops.DeviceMem) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.syncSize()
	if ix < 0 || ix >= len(a.elems) {
		return fmt.Errorf("tensorarray %s: write index %d out of range [0,%d)", a.name, ix, len(a.elems))
	}
	if a.written[ix] {
		if !a.accumulate {
			return fmt.Errorf("tensorarray %s: location %d written twice (write-once semantics)", a.name, ix)
		}
		sum, err := tensor.Add(a.elems[ix], v)
		if err != nil {
			return fmt.Errorf("tensorarray %s: accumulate at %d: %w", a.name, ix, err)
		}
		a.elems[ix] = sum
		return nil
	}
	if mem != nil {
		if err := mem.Allocate(v.NumBytes()); err != nil {
			return fmt.Errorf("tensorarray %s: write: %w", a.name, err)
		}
	}
	a.elems[ix] = v
	a.written[ix] = true
	return nil
}

// Read returns the value at ix.
func (a *Res) Read(ix int) (*tensor.Tensor, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.syncSize()
	if ix < 0 || ix >= len(a.elems) {
		return nil, fmt.Errorf("tensorarray %s: read index %d out of range [0,%d)", a.name, ix, len(a.elems))
	}
	if !a.written[ix] {
		return nil, fmt.Errorf("tensorarray %s: read of unwritten location %d", a.name, ix)
	}
	return a.elems[ix], nil
}

// StackAll packs all elements along a new axis 0. Unwritten locations are
// an error.
func (a *Res) StackAll() (*tensor.Tensor, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.syncSize()
	if len(a.elems) == 0 {
		return nil, fmt.Errorf("tensorarray %s: stack of empty array", a.name)
	}
	for i, w := range a.written {
		if !w {
			return nil, fmt.Errorf("tensorarray %s: stack with unwritten location %d", a.name, i)
		}
	}
	return tensor.Stack(tensor.New, a.elems...)
}

// UnstackFrom splits v along axis 0 into the array (which must match in
// size, or be empty-sized in which case it is resized).
func (a *Res) UnstackFrom(v *tensor.Tensor, mem ops.DeviceMem) error {
	parts, err := tensor.Unstack(tensor.New, v)
	if err != nil {
		return fmt.Errorf("tensorarray %s: unstack: %w", a.name, err)
	}
	a.mu.Lock()
	if len(a.elems) == 0 {
		a.elems = make([]*tensor.Tensor, len(parts))
		a.written = make([]bool, len(parts))
	}
	if len(parts) != len(a.elems) {
		a.mu.Unlock()
		return fmt.Errorf("tensorarray %s: unstack of %d elements into array of size %d", a.name, len(parts), len(a.elems))
	}
	a.mu.Unlock()
	for i, p := range parts {
		if err := a.Write(i, p, mem); err != nil {
			return err
		}
	}
	return nil
}

// Grad returns (creating on first use) the gradient TensorArray for the
// given source label. The gradient array has the same size and accumulates
// multiple writes (§5.2).
func (a *Res) Grad(source string) *Res {
	a.mu.Lock()
	defer a.mu.Unlock()
	if g, ok := a.grads[source]; ok {
		return g
	}
	g := New(a.name+"@grad:"+source, len(a.elems), true)
	g.forward = a
	a.grads[source] = g
	return g
}

func taFromCtx(ctx *ops.KernelContext, input int) (*Res, error) {
	h, err := ctx.InputResource(input)
	if err != nil {
		return nil, err
	}
	ta, ok := h.(*Res)
	if !ok {
		return nil, fmt.Errorf("ops: %s(%s): handle is not a TensorArray", ctx.OpName, ctx.NodeName)
	}
	return ta, nil
}

func flowOut() ops.Value { return ops.TensorVal(tensor.Scalar(0)) }

func init() {
	// TensorArray(size) -> (handle, flow). Keyed by node name in the
	// per-step container.
	ops.Register(&ops.OpDef{Name: "TensorArray", Inputs: ops.Exactly(1), NumOutputs: 2, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		sizeT, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		size := int(sizeT.ScalarIntValue())
		if size < 0 {
			return nil, fmt.Errorf("ops: TensorArray(%s): negative size %d", ctx.NodeName, size)
		}
		res := ctx.Env.StepRes().LookupOrCreate("ta/"+ctx.NodeName, func() ops.Resource {
			return New(ctx.NodeName, size, false)
		})
		return ctx.Two(ops.ResourceVal(res), flowOut()), nil
	}})

	// TensorArrayWrite(handle, index, value, flow) -> flow.
	ops.Register(&ops.OpDef{Name: "TensorArrayWrite", Inputs: ops.Exactly(4), NumOutputs: 1, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		ta, err := taFromCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		ixT, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		v, err := ctx.Input(2)
		if err != nil {
			return nil, err
		}
		if err := ta.Write(int(ixT.ScalarIntValue()), v, ctx.Mem); err != nil {
			return nil, err
		}
		return ctx.One(flowOut()), nil
	}})

	// TensorArrayRead(handle, index, flow) -> value.
	ops.Register(&ops.OpDef{Name: "TensorArrayRead", Inputs: ops.Exactly(3), NumOutputs: 1, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		ta, err := taFromCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		ixT, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		return ctx.Result(ta.Read(int(ixT.ScalarIntValue())))
	}})

	// TensorArrayStack(handle, flow) -> value.
	ops.Register(&ops.OpDef{Name: "TensorArrayStack", Inputs: ops.Exactly(2), NumOutputs: 1, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		ta, err := taFromCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(ta.StackAll())
	}})

	// TensorArrayUnstack(handle, value, flow) -> flow.
	ops.Register(&ops.OpDef{Name: "TensorArrayUnstack", Inputs: ops.Exactly(3), NumOutputs: 1, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		ta, err := taFromCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		v, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		if err := ta.UnstackFrom(v, ctx.Mem); err != nil {
			return nil, err
		}
		return ctx.One(flowOut()), nil
	}})

	// TensorArraySize(handle, flow) -> size.
	ops.Register(&ops.OpDef{Name: "TensorArraySize", Inputs: ops.Exactly(2), NumOutputs: 1, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		ta, err := taFromCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		return ctx.One(ops.TensorVal(tensor.ScalarInt(int64(ta.Size())))), nil
	}})

	// TensorArrayGrad(handle, flow) -> (grad handle, flow). The "source"
	// attr distinguishes gradient arrays arising from different
	// gradient subgraphs over the same forward array.
	ops.Register(&ops.OpDef{Name: "TensorArrayGrad", Inputs: ops.Exactly(2), NumOutputs: 2, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		ta, err := taFromCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		g := ta.Grad(ctx.AttrString("source"))
		return ctx.Two(ops.ResourceVal(g), flowOut()), nil
	}})
}
