package ops

import (
	"fmt"
	"strconv"
	"sync"
)

// Kernel computes a node's outputs from its inputs.
type Kernel func(ctx *KernelContext) ([]Value, error)

// OpDef describes an operation type.
type OpDef struct {
	// Name is the op type name ("MatMul", "Switch", ...).
	Name string
	// NumOutputs is the fixed output arity. Ops whose arity depends on
	// attributes (e.g. Unpack) set VariableOutputs instead.
	NumOutputs int
	// VariableOutputs, when non-nil, computes arity from attributes.
	VariableOutputs func(attrs map[string]any) int
	// Inputs is the data-input arity; Register rejects an op without one.
	Inputs Arity
	// Infer derives the node's output facts from its inputs' facts and its
	// attributes (see InferCtx). Ops whose facts come from elsewhere in
	// the graph (control flow, resources, Recv) leave it nil.
	Infer func(c *InferCtx)
	// Kernel executes the op. Control-flow primitives (Switch, Merge,
	// Enter, Exit, NextIteration) and communication ops (Send, Recv)
	// have nil kernels: the executor implements their semantics.
	Kernel Kernel
	// Stateful ops have side effects and are never pruned or
	// deduplicated.
	Stateful bool
	// Fresh marks kernels whose outputs alias no memory the kernel does
	// not exclusively own — each output is either freshly allocated from
	// the tensor pool or forwarded from an input granted via
	// KernelContext.ForwardableInput — and that retain no reference to
	// their inputs after returning. It is the executor's ownership rule
	// seen from a kernel: a Fresh node's outputs enter the ownership
	// system, and its references to its inputs are released when it
	// completes, the last release returning the buffer to the pool. A
	// node that is not Fresh is a holder: whatever it was handed is the
	// collector's from then on. Ops that return feeds, constants, resource
	// state, or views of inputs (Const, Placeholder, VarRead, Identity,
	// stack and TensorArray ops, ...) must leave it unset.
	Fresh bool
}

var (
	regMu    sync.RWMutex
	registry = map[string]*OpDef{}
)

// Register installs an op definition; it panics on duplicates (ops are
// registered from init functions).
func Register(def *OpDef) {
	regMu.Lock()
	defer regMu.Unlock()
	if def.Name == "" || !def.Inputs.set {
		panic("ops: op " + strconv.Quote(def.Name) + " needs a name and an input arity") // dcfvet:allow panicpath=init-time registration
	}
	if _, dup := registry[def.Name]; dup {
		panic("ops: duplicate registration of " + def.Name) // dcfvet:allow panicpath=init-time registration
	}
	registry[def.Name] = def
}

// Get returns the op definition or an error for unknown ops.
func Get(name string) (*OpDef, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	def, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("ops: unknown op %q", name)
	}
	return def, nil
}

// OutputArity returns the number of outputs a node of this op with these
// attributes produces.
func OutputArity(name string, attrs map[string]any) (int, error) {
	def, err := Get(name)
	if err != nil {
		return 0, err
	}
	if def.VariableOutputs != nil {
		return def.VariableOutputs(attrs), nil
	}
	return def.NumOutputs, nil
}

// Arity is how many data inputs an op takes: Exactly(n), AtLeast(n) or
// Between(min, max). The zero Arity is unset.
type Arity struct {
	min, max int // max -1: unbounded
	set      bool
}

// Exactly is an arity of n inputs.
func Exactly(n int) Arity { return Arity{n, n, true} }

// AtLeast is an arity of n or more inputs.
func AtLeast(n int) Arity { return Arity{n, -1, true} }

// Between is an arity of lo to hi inputs.
func Between(lo, hi int) Arity { return Arity{lo, hi, true} }

// Allows reports whether a node with n data inputs has this arity.
func (a Arity) Allows(n int) bool { return n >= a.min && (a.max < 0 || n <= a.max) }

// String renders the arity as the verifier's input-arity finding states it.
func (a Arity) String() string {
	switch a.max {
	case -1:
		return fmt.Sprintf(">= %d", a.min)
	case a.min:
		return strconv.Itoa(a.min)
	}
	return fmt.Sprintf("%d..%d", a.min, a.max)
}
