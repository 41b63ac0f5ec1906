// Package stack implements the state-saving stacks of §5.1 (Figure 9 of the
// paper). The forward loop pushes intermediate values; the gradient loop
// pops them in exactly reverse order. Pushes and pops are asynchronous with
// respect to compute; ordering across loop iterations is enforced by the
// gradient builder, which threads an ordering token through the push (and
// pop) of consecutive iterations.
//
// Stacks are swap-aware (§5.3): when created with swapping enabled and the
// device's memory consumption is above a threshold, a pushed tensor's bytes
// are moved to host memory on the device's D2H stream, and brought back on
// the H2D stream when popped. Small tensors are never swapped. The tensor
// data itself stays in Go memory — the swap is a faithful simulation of the
// memory accounting and the transfer timing, which is what the paper's
// claims are about.
package stack

import (
	"fmt"
	"sync"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// MinSwapBytes is the default "do not swap small tensors" threshold.
const MinSwapBytes = 4096

// elemState tracks where a pushed value currently resides.
type elemState int

const (
	onDevice elemState = iota
	swappingOut
	onHost
)

type elem struct {
	v     ops.Value
	bytes int64
	state elemState
	// outDone is closed when a pending swap-out transfer finishes.
	outDone chan struct{}
}

// Res is the stack resource.
type Res struct {
	name          string
	swap          bool
	swapThreshold float64 // fraction of device capacity above which to swap
	minSwapBytes  int64

	mu    sync.Mutex
	elems []*elem
}

// New returns an empty stack resource.
func New(name string, swap bool) *Res {
	return &Res{name: name, swap: swap, swapThreshold: 0.0, minSwapBytes: MinSwapBytes}
}

// ResourceName implements ops.Resource.
func (s *Res) ResourceName() string { return "stack/" + s.name }

// Push appends v, charging mem and possibly initiating an asynchronous
// swap-out. It returns an OOM error if the device cannot hold the value.
func (s *Res) Push(v ops.Value, mem ops.DeviceMem) error {
	var bytes int64
	if v.T != nil {
		bytes = v.T.NumBytes()
	}
	e := &elem{v: v, bytes: bytes, state: onDevice}
	if mem != nil && bytes > 0 {
		if err := mem.Allocate(bytes); err != nil {
			return fmt.Errorf("stack %s: push: %w", s.name, err)
		}
		// Swap policy (§5.3): only swap when device memory pressure
		// exceeds the threshold, and never swap small tensors.
		pressured := mem.CapacityBytes() == 0 ||
			float64(mem.UsedBytes()) >= s.swapThreshold*float64(mem.CapacityBytes())
		if s.swap && pressured && bytes >= s.minSwapBytes {
			e.state = swappingOut
			e.outDone = make(chan struct{})
			mem.SwapOut(bytes, func() {
				mem.Release(bytes)
				s.mu.Lock()
				e.state = onHost
				s.mu.Unlock()
				close(e.outDone)
			})
		}
	}
	s.mu.Lock()
	s.elems = append(s.elems, e)
	s.mu.Unlock()
	return nil
}

// Pop removes and returns the top value. If the value was swapped out, Pop
// allocates device memory, waits for the swap-in transfer, and releases the
// reservation (the popped value is then a transient input of the consumer).
func (s *Res) Pop(mem ops.DeviceMem) (ops.Value, error) {
	s.mu.Lock()
	if len(s.elems) == 0 {
		s.mu.Unlock()
		return ops.Value{}, fmt.Errorf("stack %s: pop from empty stack", s.name)
	}
	e := s.elems[len(s.elems)-1]
	s.elems = s.elems[:len(s.elems)-1]
	// Snapshot the swap state while still holding the lock: the swap-out
	// completion callback flips e.state under s.mu from the device's
	// transfer stream. A swappingOut snapshot may complete right after the
	// unlock; the outDone wait below synchronizes with that.
	state := e.state
	s.mu.Unlock()

	if mem == nil || e.bytes == 0 {
		return e.v, nil
	}
	switch state {
	case onDevice:
		mem.Release(e.bytes)
		return e.v, nil
	case swappingOut:
		// The transfer is in flight; wait for it so accounting is
		// consistent, then fall through to the swap-in path.
		<-e.outDone
		fallthrough
	default: // onHost
		if err := mem.Allocate(e.bytes); err != nil {
			return ops.Value{}, fmt.Errorf("stack %s: pop swap-in: %w", s.name, err)
		}
		done := make(chan struct{})
		mem.SwapIn(e.bytes, func() { close(done) })
		<-done
		mem.Release(e.bytes)
		return e.v, nil
	}
}

// orderToken is the ordering token every StackPush and StackPop returns: one
// scalar for the whole process, never written. Both ops are non-Fresh, so the
// executor never owns or counts it and no kernel is ever granted it to
// forward into; consumers only wait for it or add it up.
var orderToken = ops.TensorVal(tensor.ScalarInt(0))

func init() {
	ops.Register(&ops.OpDef{Name: "Stack", Inputs: ops.Exactly(0), NumOutputs: 1, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		res := ctx.Env.StepRes().LookupOrCreate("stack/"+ctx.NodeName, func() ops.Resource {
			return New(ctx.NodeName, ctx.AttrBool("swap"))
		})
		return ctx.One(ops.ResourceVal(res)), nil
	}})

	// StackPush(handle, value, token) -> (value, token). The token input
	// and output serialize pushes from consecutive loop iterations.
	ops.Register(&ops.OpDef{Name: "StackPush", Inputs: ops.Exactly(3), NumOutputs: 2, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		h, err := ctx.InputResource(0)
		if err != nil {
			return nil, err
		}
		st, ok := h.(*Res)
		if !ok {
			return nil, fmt.Errorf("ops: StackPush(%s): handle is not a stack", ctx.NodeName)
		}
		if err := st.Push(ctx.In[1], ctx.Mem); err != nil {
			return nil, err
		}
		return ctx.Two(ctx.In[1], orderToken), nil
	}})

	// StackPop(handle, token) -> (value, token).
	ops.Register(&ops.OpDef{Name: "StackPop", Inputs: ops.Exactly(2), NumOutputs: 2, Stateful: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		h, err := ctx.InputResource(0)
		if err != nil {
			return nil, err
		}
		st, ok := h.(*Res)
		if !ok {
			return nil, fmt.Errorf("ops: StackPop(%s): handle is not a stack", ctx.NodeName)
		}
		v, err := st.Pop(ctx.Mem)
		if err != nil {
			return nil, err
		}
		return ctx.Two(v, orderToken), nil
	}})
}
