package ops

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// VariableRes is a session-lifetime mutable tensor.
type VariableRes struct {
	name string
	mu   sync.Mutex
	val  *tensor.Tensor
}

// NewVariable creates an uninitialized variable resource (used by
// checkpoint restore).
func NewVariable(name string) *VariableRes { return &VariableRes{name: name} }

// ResourceName implements Resource.
func (v *VariableRes) ResourceName() string { return v.name }

// Value returns a snapshot of the variable (cloned so later assignment
// cannot race with readers of a previously returned tensor).
func (v *VariableRes) Value() (*tensor.Tensor, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.val == nil {
		return nil, fmt.Errorf("ops: variable %q is uninitialized", v.name)
	}
	return v.val, nil
}

// Set assigns the variable.
func (v *VariableRes) Set(t *tensor.Tensor) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.val = t
}

// AddInPlace accumulates delta into the variable.
func (v *VariableRes) AddInPlace(delta *tensor.Tensor, scale float64) (*tensor.Tensor, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.val == nil {
		return nil, fmt.Errorf("ops: variable %q is uninitialized", v.name)
	}
	nv, err := tensor.AddScaled(v.val, delta, scale)
	if err != nil {
		return nil, err
	}
	v.val = nv
	return nv, nil
}

// lookupVar finds or creates the session variable named by the "var" attr.
func lookupVar(ctx *KernelContext) *VariableRes {
	name := ctx.AttrString("var")
	res := ctx.Env.SessionRes().LookupOrCreate("var/"+name, func() Resource {
		return &VariableRes{name: name}
	})
	return res.(*VariableRes)
}

func init() {
	Register(&OpDef{Name: "VarRead", NumOutputs: 1, Inputs: Exactly(0), Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.Result(lookupVar(ctx).Value())
	}})
	Register(&OpDef{Name: "Assign", NumOutputs: 1, Inputs: Exactly(1), Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		t, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		lookupVar(ctx).Set(t)
		return ctx.One(TensorVal(t)), nil
	}})
	Register(&OpDef{Name: "AssignAdd", NumOutputs: 1, Inputs: Exactly(1), Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		t, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(lookupVar(ctx).AddInPlace(t, 1))
	}})
	Register(&OpDef{Name: "AssignSub", NumOutputs: 1, Inputs: Exactly(1), Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		t, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		return ctx.Result(lookupVar(ctx).AddInPlace(t, -1))
	}})
	// ApplyGradientDescent: var -= lr * grad, the atomic SGD update.
	Register(&OpDef{Name: "ApplyGradientDescent", NumOutputs: 1, Inputs: Exactly(2), Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		grad, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		lr, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		return ctx.Result(lookupVar(ctx).AddInPlace(grad, -lr.ScalarValue()))
	}})
	// ScatterUpdateVar replaces variable rows at indices with update rows
	// (the in-graph replay-database write of §6.5).
	Register(&OpDef{Name: "ScatterUpdateVar", NumOutputs: 1, Inputs: Exactly(2), Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ix, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		up, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		v := lookupVar(ctx)
		v.mu.Lock()
		defer v.mu.Unlock()
		if v.val == nil {
			return nil, fmt.Errorf("ops: variable %q is uninitialized", v.name)
		}
		nv := v.val.Clone()
		rows := nv.Dim(0)
		inner := nv.Size() / rows
		for i, r := range ix.I {
			if r < 0 || int(r) >= rows {
				return nil, fmt.Errorf("ops: ScatterUpdateVar index %d out of range [0,%d)", r, rows)
			}
			copy(nv.F[int(r)*inner:(int(r)+1)*inner], up.F[i*inner:(i+1)*inner])
		}
		v.val = nv
		return ctx.One(TensorVal(nv)), nil
	}})

	// ScatterAddVar adds update rows into the variable at indices.
	Register(&OpDef{Name: "ScatterAddVar", NumOutputs: 1, Inputs: Exactly(2), Stateful: true, Kernel: func(ctx *KernelContext) ([]Value, error) {
		ix, err := ctx.Input(0)
		if err != nil {
			return nil, err
		}
		up, err := ctx.Input(1)
		if err != nil {
			return nil, err
		}
		v := lookupVar(ctx)
		v.mu.Lock()
		defer v.mu.Unlock()
		if v.val == nil {
			return nil, fmt.Errorf("ops: variable %q is uninitialized", v.name)
		}
		nv := v.val.Clone()
		if err := tensor.ScatterAddRows(nv, ix, up); err != nil {
			return nil, err
		}
		v.val = nv
		return ctx.One(TensorVal(nv)), nil
	}})
}
