package ops

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// The FusedElementwise op executes a straight-line chain of elementwise
// operations as one kernel. The optimizer's fusion pass compiles chains of
// Fresh unary/binary elementwise ops whose intermediates have a single
// consumer into one fused node, so a chain like Relu(Add(Mul(x, w), b))
// costs one scheduled execution, one completion, and at most one allocation
// (the running value is updated in place) instead of three of each.
//
// The fused program is the node's "steps" attribute: a []FusedStep evaluated
// in order, each step combining the running value (operand index
// FusedRunning) and/or the fused node's inputs (operand index >= 0).

// FusedRunning refers to the previous step's result in a FusedStep operand.
const FusedRunning = -1

// FusedNone marks the absent second operand of a unary step.
const FusedNone = -2

// FusedStep is one operation of a fused elementwise chain.
type FusedStep struct {
	// Op is the original elementwise op name ("Add", "Tanh", ...).
	Op string
	// A and B are the operand sources: an input index of the fused node,
	// FusedRunning for the running value, or FusedNone for B of a unary
	// step. The first step reads only inputs; every later step reads the
	// running value exactly once.
	A, B int
}

// String renders the step for DOT dumps and errors.
func (s FusedStep) String() string {
	opnd := func(i int) string {
		switch i {
		case FusedRunning:
			return "•"
		case FusedNone:
			return ""
		}
		return fmt.Sprintf("in%d", i)
	}
	if s.B == FusedNone {
		return fmt.Sprintf("%s(%s)", s.Op, opnd(s.A))
	}
	return fmt.Sprintf("%s(%s,%s)", s.Op, opnd(s.A), opnd(s.B))
}

// FusedStepsAttr is the attribute key holding the []FusedStep program.
const FusedStepsAttr = "steps"

// fusedUnary and fusedBinary are the elementwise kernels a chain may
// contain: exactly the Fresh ops with an in-place (*Into) form. The
// fusion pass consults these tables, so op support lives in one place.
var fusedUnary = map[string]func(dst, t *tensor.Tensor) (*tensor.Tensor, error){
	"Neg": tensor.NegInto, "Abs": tensor.AbsInto, "Exp": tensor.ExpInto,
	"Log": tensor.LogInto, "Sqrt": tensor.SqrtInto, "Square": tensor.SquareInto,
	"Sigmoid": tensor.SigmoidInto, "Tanh": tensor.TanhInto,
	"Relu": tensor.ReluInto, "Sign": tensor.SignInto,
}

var fusedBinary = map[string]func(dst, a, b *tensor.Tensor) (*tensor.Tensor, error){
	"Add": tensor.AddInto, "Sub": tensor.SubInto, "Mul": tensor.MulInto,
	"Div": tensor.DivInto, "Pow": tensor.PowInto, "Maximum": tensor.MaximumInto,
	"Minimum": tensor.MinimumInto, "Mod": tensor.ModInto,
}

// FusableUnary reports whether op is a unary elementwise op the fused
// kernel can run.
func FusableUnary(op string) bool { _, ok := fusedUnary[op]; return ok }

// FusableBinary reports whether op is a binary elementwise op the fused
// kernel can run.
func FusableBinary(op string) bool { _, ok := fusedBinary[op]; return ok }

// FusedOpsLabel renders a chain summary ("Mul+Add+Relu") for node names.
func FusedOpsLabel(steps []FusedStep) string {
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = s.Op
	}
	return strings.Join(names, "+")
}

func init() {
	Register(&OpDef{Name: "FusedElementwise", NumOutputs: 1, Fresh: true, Kernel: fusedKernel})
}

func fusedKernel(ctx *KernelContext) ([]Value, error) {
	steps, ok := ctx.Attrs[FusedStepsAttr].([]FusedStep)
	if !ok || len(steps) == 0 {
		return nil, fmt.Errorf("ops: FusedElementwise(%s) missing steps attr", ctx.NodeName)
	}
	// lastUse[i] is the last step reading input i: an input buffer may
	// seed the in-place chain only once nothing later re-reads it.
	lastUse := make([]int, len(ctx.In))
	for i := range lastUse {
		lastUse[i] = -1
	}
	for si, s := range steps {
		if s.A >= 0 && s.A < len(lastUse) {
			lastUse[s.A] = si
		}
		if s.B >= 0 && s.B < len(lastUse) {
			lastUse[s.B] = si
		}
	}

	var cur *tensor.Tensor
	curOwned := false   // the kernel may write cur in place
	curIsInput := false // cur aliases an input buffer (executor recycles it)
	operand := func(i, si int) (*tensor.Tensor, error) {
		if i == FusedRunning {
			if cur == nil {
				return nil, fmt.Errorf("ops: FusedElementwise(%s) step %d reads the running value before any step produced it", ctx.NodeName, si)
			}
			return cur, nil
		}
		return ctx.Input(i)
	}
	// forwardable returns input i's buffer as an in-place destination when
	// the executor owns it exclusively and no later step re-reads it.
	forwardable := func(i, si int) *tensor.Tensor {
		if i < 0 || lastUse[i] > si {
			return nil
		}
		return ctx.ForwardableInput(i)
	}
	for si, s := range steps {
		a, err := operand(s.A, si)
		if err != nil {
			return nil, err
		}
		// Pick the in-place destination: the running value (exclusively
		// ours after step 0) or a forwardable input at its last use. The
		// Into kernels ignore dst unless it aliases an operand and has
		// the result's exact shape, so a broadcast mid-chain simply
		// falls back to a pooled allocation.
		var dst *tensor.Tensor
		if curOwned && (s.A == FusedRunning || s.B == FusedRunning) {
			dst = cur
		} else if d := forwardable(s.A, si); d != nil {
			dst = d
		}
		var r *tensor.Tensor
		if s.B == FusedNone {
			fn, ok := fusedUnary[s.Op]
			if !ok {
				return nil, fmt.Errorf("ops: FusedElementwise(%s) step %d: %q is not a fusable unary op", ctx.NodeName, si, s.Op)
			}
			r, err = fn(dst, a)
		} else {
			var b *tensor.Tensor
			b, err = operand(s.B, si)
			if err != nil {
				return nil, err
			}
			if dst == nil {
				if d := forwardable(s.B, si); d != nil {
					dst = d
				}
			}
			fn, ok := fusedBinary[s.Op]
			if !ok {
				return nil, fmt.Errorf("ops: FusedElementwise(%s) step %d: %q is not a fusable binary op", ctx.NodeName, si, s.Op)
			}
			r, err = fn(dst, a, b)
		}
		if err != nil {
			return nil, fmt.Errorf("ops: FusedElementwise(%s) step %d (%s): %w", ctx.NodeName, si, s, err)
		}
		if r != cur && cur != nil && curOwned && !curIsInput {
			// The running buffer was abandoned (shape or dtype changed
			// mid-chain): it is exclusively ours and nothing downstream
			// can see it, so recycle it. Input-aliased buffers stay out:
			// the executor is their owner-of-record.
			tensor.Recycle(cur)
		}
		cur = r
		curOwned = true
		curIsInput = r == dst && dst != nil && dstAliasesInput(ctx, dst)
	}
	return ctx.One(TensorVal(cur)), nil
}

// dstAliasesInput reports whether t is one of the kernel's input tensors.
func dstAliasesInput(ctx *KernelContext, t *tensor.Tensor) bool {
	for i := range ctx.In {
		if ctx.In[i].T == t {
			return true
		}
	}
	return false
}
