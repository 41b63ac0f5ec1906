package ops

import (
	"fmt"
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
	if def.Name == "" {
		panic("ops: empty op name") // dcfvet:allow panicpath=init-time registration
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
