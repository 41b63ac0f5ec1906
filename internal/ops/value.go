// Package ops defines the operation registry and the kernels that implement
// each operation, the equivalent of TensorFlow's op/kernel layer. The
// executor looks kernels up by op name; the graph builders consult op
// definitions for output arity, and the verifier for input arity and for
// the rule that infers each op's output dtypes and shapes.
//
// Adding an op takes its registration and its gradient, nothing else:
//   - Register (or a group helper such as unary or binaryFwd) with its
//     kernel, its input arity and its Infer rule, plus a sample in the
//     package tests' opSamples, which holds the rule to the kernel;
//   - RegisterGrad or RegisterNoGrad in internal/autodiff.
//
// Infer is nil only where there is no output, or where the facts come from
// elsewhere in the graph: Recv, control flow, and the variable, stack and
// TensorArray ops, whose facts internal/verify joins.
package ops

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Value is what flows along a data edge: a dense tensor or a handle to a
// mutable resource (variable, stack, TensorArray). Exactly one field is set.
type Value struct {
	T *tensor.Tensor
	R Resource
}

// TensorVal wraps a tensor in a Value.
func TensorVal(t *tensor.Tensor) Value { return Value{T: t} }

// ResourceVal wraps a resource in a Value.
func ResourceVal(r Resource) Value { return Value{R: r} }

// String describes the value.
func (v Value) String() string {
	if v.T != nil {
		return v.T.String()
	}
	if v.R != nil {
		return "resource:" + v.R.ResourceName()
	}
	return "<empty>"
}

// Tensor returns the tensor or an error if the value is a resource.
func (v Value) Tensor() (*tensor.Tensor, error) {
	if v.T == nil {
		return nil, fmt.Errorf("ops: expected a tensor, got %s", v.String())
	}
	return v.T, nil
}

// Resource is a mutable object that lives in a resource manager and is
// referenced by handle values flowing through the graph.
type Resource interface {
	ResourceName() string
}

// Resources is a named collection of resources. A session owns one (for
// variables); each step owns one (for stacks and TensorArrays), which is
// dropped when the step completes — TF's "per-step container".
type Resources struct {
	mu sync.Mutex
	m  map[string]Resource
}

// NewResources returns an empty container.
func NewResources() *Resources { return &Resources{m: map[string]Resource{}} }

// LookupOrCreate returns the named resource, creating it with make() under
// the lock if absent.
func (r *Resources) LookupOrCreate(name string, mk func() Resource) Resource {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.m[name]; ok {
		return got
	}
	res := mk()
	r.m[name] = res
	return res
}

// Lookup returns the named resource if present.
func (r *Resources) Lookup(name string) (Resource, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	got, ok := r.m[name]
	return got, ok
}

// Names returns the resource names (for tests/debugging).
func (r *Resources) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.m))
	for k := range r.m {
		out = append(out, k)
	}
	return out
}

// DeviceMem models the memory system of the device a kernel runs on. The
// CPU device returns an implementation with unlimited capacity and
// instantaneous transfers; simulated accelerators enforce a capacity and
// charge transfer time on copy streams (see internal/device).
type DeviceMem interface {
	// Allocate reserves bytes. A request that does not fit waits while
	// a SwapOut is in flight and fails with an OOM error only when
	// nothing is on its way out that could make room.
	Allocate(bytes int64) error
	// Release returns bytes to the device.
	Release(bytes int64)
	// SwapOut asynchronously copies bytes device→host; done runs after
	// the transfer completes (device bytes remain reserved until the
	// caller releases them).
	SwapOut(bytes int64, done func())
	// SwapIn asynchronously copies bytes host→device; done runs after
	// the transfer completes. The caller must have Allocated first.
	SwapIn(bytes int64, done func())
	// UsedBytes reports current device memory usage.
	UsedBytes() int64
	// CapacityBytes reports the device capacity (0 = unlimited).
	CapacityBytes() int64
}

// Env is the execution environment a kernel sees beyond its inputs.
type Env interface {
	// Feed returns the fed tensor for a placeholder name.
	Feed(name string) (*tensor.Tensor, bool)
	// StepRes returns the per-step resource container.
	StepRes() *Resources
	// SessionRes returns the session-lifetime resource container.
	SessionRes() *Resources
	// RNG returns the step's random generator.
	RNG() *tensor.RNG
}

// KernelContext carries one execution's inputs and environment.
//
// A context, its In slice and the slice a kernel returns through One or Two
// are valid for the duration of that kernel call only: the executor reuses
// all three for the next node it runs. Kernels must not retain ctx, ctx.In
// or the returned slice (in a resource, a goroutine, a closure that outlives
// the call); the Values inside them are plain data and may be kept.
type KernelContext struct {
	// OpName and NodeName identify the executing node.
	OpName   string
	NodeName string
	// Attrs are the node's attributes.
	Attrs
	// In holds the input values in port order.
	In []Value
	// FwdMask marks inputs whose tensor buffers the executor owns
	// exclusively: bit i set means input i has no other live reference,
	// and an opt-in kernel may write its output into that buffer (buffer
	// forwarding) via ForwardableInput. Inputs beyond 63 are never
	// forwardable.
	FwdMask uint64
	// Env is the step environment.
	Env Env
	// Mem is the executing device's memory system (may be nil for
	// plain CPU execution with no accounting).
	Mem DeviceMem

	// out backs the result slices One and Two hand back, so a kernel's
	// return value costs no allocation; the caller copies the values out
	// before the context is reused.
	out [2]Value
}

// One returns v as a single-output kernel result backed by the context.
func (c *KernelContext) One(v Value) []Value {
	c.out[0] = v
	return c.out[:1]
}

// Two returns (a, b) as a two-output kernel result backed by the context.
func (c *KernelContext) Two(a, b Value) []Value {
	c.out[0], c.out[1] = a, b
	return c.out[:2]
}

// Result returns t as a single-output kernel result, or err.
func (c *KernelContext) Result(t *tensor.Tensor, err error) ([]Value, error) {
	if err != nil {
		return nil, err
	}
	return c.One(TensorVal(t)), nil
}

// Reset zeroes the context for reuse by another kernel call, keeping only
// In's capacity. Clearing In's elements and the One/Two backing store drops
// every tensor reference the finished call left behind.
func (c *KernelContext) Reset() {
	clear(c.In)
	*c = KernelContext{In: c.In[:0]}
}

// ForwardableInput returns the tensor of input i when the executor has
// granted exclusive ownership of its buffer (see FwdMask), else nil. A
// kernel that takes the buffer must return it as (part of) an output.
func (c *KernelContext) ForwardableInput(i int) *tensor.Tensor {
	if i < 0 || i >= len(c.In) || i >= 64 || c.FwdMask&(1<<uint(i)) == 0 {
		return nil
	}
	return c.In[i].T
}

// Input returns input i as a tensor.
func (c *KernelContext) Input(i int) (*tensor.Tensor, error) {
	if i < 0 || i >= len(c.In) {
		return nil, fmt.Errorf("ops: %s(%s): no input %d", c.OpName, c.NodeName, i)
	}
	t, err := c.In[i].Tensor()
	if err != nil {
		return nil, fmt.Errorf("ops: %s(%s) input %d: %w", c.OpName, c.NodeName, i, err)
	}
	return t, nil
}

// InputResource returns input i as a resource.
func (c *KernelContext) InputResource(i int) (Resource, error) {
	if i < 0 || i >= len(c.In) {
		return nil, fmt.Errorf("ops: %s(%s): no input %d", c.OpName, c.NodeName, i)
	}
	if c.In[i].R == nil {
		return nil, fmt.Errorf("ops: %s(%s) input %d: expected a resource", c.OpName, c.NodeName, i)
	}
	return c.In[i].R, nil
}

// Attrs are a node's attributes. KernelContext and InferCtx embed them, so
// a kernel and its op's inference rule read attributes the same way.
type Attrs map[string]any

// AttrString returns a string attribute.
func (a Attrs) AttrString(key string) string {
	if v, ok := a[key].(string); ok {
		return v
	}
	return ""
}

// AttrInt returns an int attribute.
func (a Attrs) AttrInt(key string) int {
	switch v := a[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	}
	return 0
}

// AttrBool returns a bool attribute.
func (a Attrs) AttrBool(key string) bool {
	if v, ok := a[key].(bool); ok {
		return v
	}
	return false
}

// AttrInts returns an []int attribute.
func (a Attrs) AttrInts(key string) []int {
	if v, ok := a[key].([]int); ok {
		return v
	}
	return nil
}

// AttrTensor returns a tensor attribute (e.g. a Const's value).
func (a Attrs) AttrTensor(key string) *tensor.Tensor {
	if v, ok := a[key].(*tensor.Tensor); ok {
		return v
	}
	return nil
}
