package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Builder constructs dataflow graphs. It tracks the current control-flow
// context and device scope, auto-captures values across context boundaries,
// and gives no-input ops a control dependency on the context pivot so they
// execute exactly once per frame instantiation.
//
// Builder methods record the first construction error ("sticky error") and
// subsequently become no-ops returning zero outputs; Err() surfaces the
// error. This keeps model-building code linear, like the Python front end
// the paper describes, while remaining explicit at session boundaries.
type Builder struct {
	G *graph.Graph

	ctx    Context
	device string

	// gradCapture relaxes cross-context capture during gradient
	// construction: a value from a conditional branch may be consumed
	// outside the branch when the enclosing loop frames match, because
	// gradient ops' liveness follows their inputs' deadness structurally.
	gradCapture bool

	// InitOps are variable initializers to run before training.
	InitOps []*graph.Node

	err error
}

// NewBuilder returns a builder over a fresh graph.
func NewBuilder() *Builder {
	return &Builder{G: graph.New()}
}

// Err returns the first construction error, if any.
func (b *Builder) Err() error { return b.err }

// fail records a sticky error.
func (b *Builder) fail(format string, args ...any) graph.Output {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return graph.Output{}
}

// pushCtx/popCtx manage the context stack.
func (b *Builder) pushCtx(c Context) { b.ctx = c }
func (b *Builder) popCtx() {
	if b.ctx != nil {
		b.ctx = b.ctx.OuterCtx()
	}
}

// Device returns the current device scope.
func (b *Builder) Device() string { return b.device }

// WithDevice runs fn with the device scope set to dev.
func (b *Builder) WithDevice(dev string, fn func()) {
	old := b.device
	b.device = dev
	fn()
	b.device = old
}

// SetDevice sets the device scope until changed again.
func (b *Builder) SetDevice(dev string) { b.device = dev }

// InCtx runs fn with the current control-flow context temporarily set to c
// (used by autodiff to build values in a loop's outer context while the
// gradient loop is under construction).
func (b *Builder) InCtx(c Context, fn func()) {
	saved := b.ctx
	b.ctx = c
	fn()
	b.ctx = saved
}

// capture makes v available in context cur, routing through guard Switches
// and constant Enters as needed.
func (b *Builder) capture(cur Context, v graph.Output) (graph.Output, error) {
	src := CtxOf(v)
	if src == cur {
		return v, nil
	}
	if IsAncestorOrSelf(src, cur) {
		// v comes from an enclosing context: route inward one level.
		if cur == nil {
			return v, nil // src == nil == cur handled above; unreachable
		}
		return cur.AddValue(b, v)
	}
	if b.gradCapture && whileChainEq(src, cur) {
		return v, nil
	}
	return graph.Output{}, fmt.Errorf(
		"core: value %s (from %s) used in %s, which it does not enclose",
		v, ctxName(src), ctxName(cur))
}

// SetGradCapture toggles the relaxed gradient-construction capture mode.
func (b *Builder) SetGradCapture(on bool) { b.gradCapture = on }

// whileChainEq reports whether two contexts sit in the same stack of loop
// frames (ignoring conditional contexts, which do not create frames).
func whileChainEq(a, c Context) bool {
	next := func(x Context) Context {
		for x != nil {
			if _, ok := x.(*WhileContext); ok {
				return x
			}
			x = x.OuterCtx()
		}
		return nil
	}
	for {
		wa, wc := next(a), next(c)
		if wa != wc {
			return false
		}
		if wa == nil {
			return true
		}
		a, c = wa.OuterCtx(), wc.OuterCtx()
	}
}

// rawOp adds a node in an explicit context without auto-capturing inputs
// (used by the control-flow machinery itself).
func (b *Builder) rawOp(op, name string, ctx Context, attrs map[string]any, ins ...graph.Output) (*graph.Node, error) {
	arity, err := ops.OutputArity(op, attrs)
	if err != nil {
		return nil, err
	}
	return b.G.AddNode(graph.NodeArgs{
		Op:         op,
		Name:       name,
		Inputs:     ins,
		Attrs:      attrs,
		Device:     b.device,
		NumOutputs: arity,
		Ctx:        ctx,
	})
}

// Op adds a node in the current context, capturing each input across
// context boundaries, and returns its first output. Ops with no data
// inputs inside a context, and ops fed only by loop constants, receive a
// control dependency on the context pivot (so, e.g., a constant in a loop
// body is re-executed per iteration, and only in iterations that run).
func (b *Builder) Op(op string, attrs map[string]any, ins ...graph.Output) graph.Output {
	n := b.OpNode(op, "", attrs, ins...)
	if n == nil {
		return graph.Output{}
	}
	if n.NumOutputs() == 0 {
		return graph.Output{}
	}
	return n.Out(0)
}

// OpNamed is Op with an explicit node name.
func (b *Builder) OpNamed(op, name string, attrs map[string]any, ins ...graph.Output) graph.Output {
	n := b.OpNode(op, name, attrs, ins...)
	if n == nil || n.NumOutputs() == 0 {
		return graph.Output{}
	}
	return n.Out(0)
}

// OpNode adds a node and returns it (nil after a sticky error).
func (b *Builder) OpNode(op, name string, attrs map[string]any, ins ...graph.Output) *graph.Node {
	if b.err != nil {
		return nil
	}
	captured := make([]graph.Output, len(ins))
	for i, in := range ins {
		if in.Node == nil {
			b.fail("core: %s input %d is a zero Output (earlier builder error?)", op, i)
			return nil
		}
		c, err := b.capture(b.ctx, in)
		if err != nil {
			b.fail("core: %s: %v", op, err)
			return nil
		}
		captured[i] = c
	}
	n, err := b.rawOp(op, name, b.ctx, attrs, captured...)
	if err != nil {
		b.fail("core: %v", err)
		return nil
	}
	if b.ctx != nil && b.ctx.Pivot() != nil && loopInvariant(captured) {
		n.AddControlInput(b.ctx.Pivot())
	}
	return n
}

// loopInvariant reports whether every input (vacuously, for none) is a
// loop constant. A constant Enter delivers its value to every iteration,
// taken or not, so an op fed only by such values would fire in an
// iteration the predicate ends, and a NextIteration behind it would start
// the next one: only the pivot makes it wait for the iteration to run.
func loopInvariant(ins []graph.Output) bool {
	for _, in := range ins {
		if in.Node.Op() != "Enter" || !in.Node.AttrBool("is_constant") {
			return false
		}
	}
	return true
}

// --- Convenience constructors -------------------------------------------

// Const adds a constant tensor.
func (b *Builder) Const(t *tensor.Tensor) graph.Output {
	return b.Op("Const", map[string]any{"value": t})
}

// Scalar adds a scalar float constant.
func (b *Builder) Scalar(v float64) graph.Output { return b.Const(tensor.Scalar(v)) }

// ScalarInt adds a scalar int constant.
func (b *Builder) ScalarInt(v int64) graph.Output { return b.Const(tensor.ScalarInt(v)) }

// Placeholder adds a named placeholder fed at run time.
func (b *Builder) Placeholder(name string) graph.Output {
	return b.OpNamed("Placeholder", name, nil)
}

// PlaceholderTyped adds a placeholder with a declared dtype and shape, so
// sessions and callables can reject mismatched feeds at the API boundary
// (naming the placeholder) instead of surfacing opaque kernel errors
// mid-step. Shape entries of -1 are unknown dims (the usual batch axis);
// the declared rank is len(shape). An empty shape declares only the dtype.
func (b *Builder) PlaceholderTyped(name string, dt tensor.DType, shape ...int) graph.Output {
	attrs := map[string]any{"dtype": int(dt)}
	if len(shape) > 0 {
		attrs["shape"] = append([]int(nil), shape...)
	}
	return b.OpNamed("Placeholder", name, attrs)
}

// ValidateFeed checks a feed value against the placeholder node's declared
// dtype and shape (no-ops for untyped placeholders or non-placeholders).
// The error names the placeholder, so callers can surface it directly at
// enqueue/call time.
func ValidateFeed(n *graph.Node, t *tensor.Tensor) error {
	if n == nil || n.Op() != "Placeholder" || t == nil {
		return nil
	}
	if dv, ok := n.Attr("dtype").(int); ok && tensor.DType(dv) != t.DType() {
		return fmt.Errorf("core: feed for placeholder %q: want dtype %v, got %v",
			n.Name(), tensor.DType(dv), t.DType())
	}
	want, ok := n.Attr("shape").([]int)
	if !ok {
		return nil
	}
	if t.Rank() != len(want) {
		return fmt.Errorf("core: feed for placeholder %q: want rank %d (shape %v), got rank %d (shape %v)",
			n.Name(), len(want), want, t.Rank(), t.Shape())
	}
	for i, d := range want {
		if d >= 0 && t.Dim(i) != d {
			return fmt.Errorf("core: feed for placeholder %q: want shape %v (-1 = any), got %v",
				n.Name(), want, t.Shape())
		}
	}
	return nil
}

// Binary helpers.
func (b *Builder) Add(x, y graph.Output) graph.Output     { return b.Op("Add", nil, x, y) }
func (b *Builder) Sub(x, y graph.Output) graph.Output     { return b.Op("Sub", nil, x, y) }
func (b *Builder) Mul(x, y graph.Output) graph.Output     { return b.Op("Mul", nil, x, y) }
func (b *Builder) Div(x, y graph.Output) graph.Output     { return b.Op("Div", nil, x, y) }
func (b *Builder) MatMul(x, y graph.Output) graph.Output  { return b.Op("MatMul", nil, x, y) }
func (b *Builder) Greater(x, y graph.Output) graph.Output { return b.Op("Greater", nil, x, y) }
func (b *Builder) Less(x, y graph.Output) graph.Output    { return b.Op("Less", nil, x, y) }

// Unary helpers.
func (b *Builder) Neg(x graph.Output) graph.Output  { return b.Op("Neg", nil, x) }
func (b *Builder) Tanh(x graph.Output) graph.Output { return b.Op("Tanh", nil, x) }

// ReduceSum sums over axes (nil = all).
// dcfvet:allow deadapi=benchmark/ builds the cluster_loop workload with it
func (b *Builder) ReduceSum(x graph.Output, axes []int, keep bool) graph.Output {
	return b.Op("Sum", map[string]any{"axes": axes, "keep_dims": keep}, x)
}

// Transpose transposes a matrix (or applies perm).
func (b *Builder) Transpose(x graph.Output, perm ...int) graph.Output {
	return b.Op("Transpose", map[string]any{"perm": perm}, x)
}

// ZerosLike returns a zero tensor shaped like x.
func (b *Builder) ZerosLike(x graph.Output) graph.Output { return b.Op("ZerosLike", nil, x) }

// OnesLike returns a ones tensor shaped like x.
func (b *Builder) OnesLike(x graph.Output) graph.Output { return b.Op("OnesLike", nil, x) }

// Variable declares a session variable with an initializer op. The returned
// output is a fresh read of the variable.
func (b *Builder) Variable(name string, init *tensor.Tensor) graph.Output {
	if b.err != nil {
		return graph.Output{}
	}
	iv := b.Const(init)
	assign := b.OpNode("Assign", "init_"+name, map[string]any{"var": name}, iv)
	if assign == nil {
		return graph.Output{}
	}
	b.InitOps = append(b.InitOps, assign)
	return b.ReadVariable(name)
}

// ReadVariable adds a read of a session variable.
func (b *Builder) ReadVariable(name string) graph.Output {
	return b.Op("VarRead", map[string]any{"var": name})
}

// ApplySGD adds `var -= lr*grad`.
func (b *Builder) ApplySGD(name string, grad, lr graph.Output) *graph.Node {
	return b.OpNode("ApplyGradientDescent", "", map[string]any{"var": name}, grad, lr)
}

// Group returns a NoOp with control dependencies on all given nodes —
// a convenient single target for "run these".
func (b *Builder) Group(deps ...*graph.Node) *graph.Node {
	n := b.OpNode("NoOp", "group", nil)
	if n == nil {
		return nil
	}
	for _, d := range deps {
		if d != nil {
			n.AddControlInput(d)
		}
	}
	return n
}
