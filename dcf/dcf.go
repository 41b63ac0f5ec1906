// Package dcf ("dynamic control flow") is the public API of this
// repository: a dataflow-graph machine-learning runtime with in-graph
// dynamic control flow, automatic differentiation through conditionals and
// loops, multi-device execution with memory swapping, and a distributed
// runtime — a from-scratch Go reproduction of the system described in
// "Dynamic Control Flow in Large-Scale Machine Learning" (EuroSys 2018).
//
// The programming model mirrors the paper's two levels: build a dataflow
// graph with a Graph (placeholders, variables, math ops, Cond, While,
// TensorArrays, Gradients), then execute it with a Session.
//
//	g := dcf.NewGraph()
//	x := g.Placeholder("x")
//	w := g.Variable("w", dcf.RandNormal(1, 0, 0.1, 4, 4))
//	outs := g.While(
//	    []dcf.Tensor{g.Scalar(0), x},
//	    func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(8)) },
//	    func(v []dcf.Tensor) []dcf.Tensor {
//	        return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].MatMul(w)}
//	    }, dcf.WhileOpts{})
//	loss := outs[1].Square().ReduceSum()
//	grads := g.MustGradients(loss, w)
//	sess := dcf.NewSession(g)
//
// # Execution model: Run, RunCtx, Callable
//
// A Session is safe for concurrent use — the paper's deployment is a
// multi-tenant server driving one graph with many concurrent steps, and
// the API is built for that shape. Three entry points trade convenience
// against steady-state cost:
//
//   - Run / Run1 / RunTargets: the scripting path. Feeds by name, plan
//     cached per (fetches, targets, graph-version) signature.
//   - RunCtx: Run under a context.Context (deadline / client disconnect
//     cancels the step promptly), also returning the run's RunMetadata.
//   - MakeCallable + Call: the serving hot path. The pruned plan is
//     compiled once; each Call binds args positionally — no pruning, no
//     signature hashing, no feed-map allocation per request. Use one
//     shared Callable per request signature (see examples/serving).
//
// Each run — whichever entry point — gets its own executor, step
// resources, and deterministic derived RNG stream; session variables are
// shared across runs, with last-writer-wins semantics under concurrent
// assignment, as in TensorFlow.
package dcf

import (
	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Value is a concrete dense tensor (the data that flows at run time).
type Value = tensor.Tensor

// DType enumerates element types.
type DType = tensor.DType

// Element types.
const (
	Float = tensor.Float
	Int   = tensor.Int
	Bool  = tensor.Bool
)

// Value constructors.
var (
	FromFloats = tensor.FromFloats
	FromInts   = tensor.FromInts
	ScalarVal  = tensor.Scalar
	ScalarBool = tensor.ScalarBool
	Zeros      = tensor.Zeros
	Eye        = tensor.Eye
)

// RandNormal returns a Value with N(mean, std²) entries, seeded
// deterministically.
func RandNormal(seed uint64, mean, std float64, shape ...int) *Value {
	return tensor.RandNormal(tensor.NewRNG(seed), mean, std, shape...)
}

// RandUniform returns a Value with uniform entries in [lo, hi).
// dcfvet:allow deadapi=benchmark/ draws the loop_dispatch and cluster_loop inputs with it
func RandUniform(seed uint64, lo, hi float64, shape ...int) *Value {
	return tensor.RandUniform(tensor.NewRNG(seed), lo, hi, shape...)
}

// GlorotUniform returns a [fanIn, fanOut] Glorot-initialized matrix.
func GlorotUniform(seed uint64, fanIn, fanOut int) *Value {
	return tensor.GlorotUniform(tensor.NewRNG(seed), fanIn, fanOut)
}

// Tensor is a symbolic value: one output of a graph node.
type Tensor struct {
	o graph.Output
	g *Graph
}

// Output exposes the underlying graph output (for interop with internal
// packages and the distributed runtime).
func (t Tensor) Output() graph.Output { return t.o }

// Op is a graph node handle used as a Session run target (e.g. an assign or
// a training step).
type Op struct {
	n *graph.Node
}

// After adds control dependencies on the given ops to the tensor's
// producing node (ordering stateful computations), returning t.
func (t Tensor) After(deps ...Op) Tensor {
	for _, d := range deps {
		if d.n != nil && t.o.Node != nil {
			t.o.Node.AddControlInput(d.n)
		}
	}
	return t
}

// WhileOpts configures While loops.
type WhileOpts = core.WhileOpts

// Graph builds dataflow graphs.
type Graph struct {
	b *core.Builder
}

// NewGraph returns an empty graph builder.
func NewGraph() *Graph { return &Graph{b: core.NewBuilder()} }

// Builder exposes the internal builder (for the layer library and tools).
func (g *Graph) Builder() *core.Builder { return g.b }

// Err returns the first construction error, if any.
func (g *Graph) Err() error { return g.b.Err() }

func (g *Graph) wrap(o graph.Output) Tensor { return Tensor{o: o, g: g} }

func unwrap(ts []Tensor) []graph.Output {
	out := make([]graph.Output, len(ts))
	for i, t := range ts {
		out[i] = t.o
	}
	return out
}

func (g *Graph) wrapAll(os []graph.Output) []Tensor {
	out := make([]Tensor, len(os))
	for i, o := range os {
		out[i] = g.wrap(o)
	}
	return out
}

// --- Graph-level constructors -------------------------------------------

// Placeholder declares a named input fed at Session.Run time.
func (g *Graph) Placeholder(name string) Tensor { return g.wrap(g.b.Placeholder(name)) }

// PlaceholderTyped declares a placeholder with a known dtype and shape
// (-1 = any size on that axis, e.g. the batch dimension). Sessions,
// callables, and batched servers reject mismatched feeds at the API
// boundary with an error naming the placeholder, instead of surfacing an
// opaque kernel error mid-step.
func (g *Graph) PlaceholderTyped(name string, dt DType, shape ...int) Tensor {
	return g.wrap(g.b.PlaceholderTyped(name, dt, shape...))
}

// Const embeds a constant value.
func (g *Graph) Const(v *Value) Tensor { return g.wrap(g.b.Const(v)) }

// Scalar embeds a scalar float constant.
func (g *Graph) Scalar(v float64) Tensor { return g.wrap(g.b.Scalar(v)) }

// Int embeds a scalar int constant.
func (g *Graph) Int(v int64) Tensor { return g.wrap(g.b.ScalarInt(v)) }

// Variable declares a session variable with an initial value; run
// Session.InitVariables before reading. The result is a fresh read.
func (g *Graph) Variable(name string, init *Value) Tensor {
	return g.wrap(g.b.Variable(name, init))
}

// ReadVariable reads a session variable.
func (g *Graph) ReadVariable(name string) Tensor { return g.wrap(g.b.ReadVariable(name)) }

// AssignAdd adds v into a session variable; returns the op to run.
func (g *Graph) AssignAdd(name string, v Tensor) Op {
	return Op{g.b.OpNode("AssignAdd", "", map[string]any{"var": name}, v.o)}
}

// ApplySGD applies `var -= lr*grad`; returns the op to run.
func (g *Graph) ApplySGD(name string, grad, lr Tensor) Op {
	return Op{g.b.ApplySGD(name, grad.o, lr.o)}
}

// ScatterUpdate replaces rows of a variable at int indices ix with rows;
// returns the op to run.
func (g *Graph) ScatterUpdate(name string, ix, rows Tensor) Op {
	return Op{g.b.OpNode("ScatterUpdateVar", "", map[string]any{"var": name}, ix.o, rows.o)}
}

// Group bundles ops into a single target.
func (g *Graph) Group(ops ...Op) Op {
	nodes := make([]*graph.Node, len(ops))
	for i, o := range ops {
		nodes[i] = o.n
	}
	return Op{g.b.Group(nodes...)}
}

// WithDevice assigns nodes created inside fn to the named device.
func (g *Graph) WithDevice(dev string, fn func()) { g.b.WithDevice(dev, fn) }

// RandomUniformOp adds an op producing fresh uniform [0,1) values each
// execution (shaped statically).
func (g *Graph) RandomUniformOp(shape ...int) Tensor {
	return g.wrap(g.b.Op("RandomUniform", map[string]any{"shape": shape}))
}

// --- Control flow ---------------------------------------------------------

// Cond builds a conditional: the taken branch's subgraph executes (§4.2).
func (g *Graph) Cond(pred Tensor, trueFn, falseFn func() []Tensor) []Tensor {
	outs := g.b.Cond(pred.o, func() []graph.Output {
		return unwrap(trueFn())
	}, func() []graph.Output {
		return unwrap(falseFn())
	})
	return g.wrapAll(outs)
}

// While builds an iterative computation (§4.2); iterations may execute in
// parallel up to opts.ParallelIterations, the loop's own window (§4.3).
// That is the only place a window is set: a loop that declares none runs at
// the executor's default of 32.
func (g *Graph) While(inits []Tensor, pred func([]Tensor) Tensor, body func([]Tensor) []Tensor, opts WhileOpts) []Tensor {
	outs := g.b.While(unwrap(inits),
		func(vars []graph.Output) graph.Output { return pred(g.wrapAll(vars)).o },
		func(vars []graph.Output) []graph.Output { return unwrap(body(g.wrapAll(vars))) },
		opts)
	return g.wrapAll(outs)
}

// Scan computes the generalized prefix sum of fn over elems (Figure 2).
func (g *Graph) Scan(fn func(acc, x Tensor) Tensor, elems, init Tensor, opts WhileOpts) Tensor {
	return g.wrap(g.b.Scan(func(a, x graph.Output) graph.Output {
		return fn(g.wrap(a), g.wrap(x)).o
	}, elems.o, init.o, opts))
}

// MapFn applies fn to each element of elems along axis 0.
func (g *Graph) MapFn(fn func(x Tensor) Tensor, elems Tensor, opts WhileOpts) Tensor {
	return g.wrap(g.b.MapFn(func(x graph.Output) graph.Output {
		return fn(g.wrap(x)).o
	}, elems.o, opts))
}

// FoldL folds fn over elems left to right.
func (g *Graph) FoldL(fn func(acc, x Tensor) Tensor, elems, init Tensor, opts WhileOpts) Tensor {
	return g.wrap(g.b.FoldL(func(a, x graph.Output) graph.Output {
		return fn(g.wrap(a), g.wrap(x)).o
	}, elems.o, init.o, opts))
}

// FoldR folds fn over elems right to left.
func (g *Graph) FoldR(fn func(acc, x Tensor) Tensor, elems, init Tensor, opts WhileOpts) Tensor {
	return g.wrap(g.b.FoldR(func(a, x graph.Output) graph.Output {
		return fn(g.wrap(a), g.wrap(x)).o
	}, elems.o, init.o, opts))
}

// TensorArray is the symbolic array-of-tensors object of §2.1.
type TensorArray struct {
	ta core.TA
	g  *Graph
}

// TensorArray creates an array of the given size (an int scalar tensor).
func (g *Graph) TensorArray(size Tensor) TensorArray {
	return TensorArray{ta: g.b.TensorArray(size.o), g: g}
}

// Write stores v at index ix, returning the array with updated flow.
func (a TensorArray) Write(ix, v Tensor) TensorArray {
	return TensorArray{ta: a.g.b.TAWrite(a.ta, ix.o, v.o), g: a.g}
}

// Read loads the element at index ix.
func (a TensorArray) Read(ix Tensor) Tensor { return a.g.wrap(a.g.b.TARead(a.ta, ix.o)) }

// Size returns the array length as an int scalar.
func (a TensorArray) Size() Tensor { return a.g.wrap(a.g.b.TASize(a.ta)) }

// Stack packs the array into one tensor along a new axis 0.
func (a TensorArray) Stack() Tensor { return a.g.wrap(a.g.b.TAStack(a.ta)) }

// Unstack splits v along axis 0 into the array.
func (a TensorArray) Unstack(v Tensor) TensorArray {
	return TensorArray{ta: a.g.b.TAUnstack(a.ta, v.o), g: a.g}
}

// Flow returns the array's ordering scalar; loops carry it as a loop
// variable so writes from successive iterations chain (Figure 2).
func (a TensorArray) Flow() Tensor { return a.g.wrap(a.ta.Flow) }

// WithFlow rebinds the array to a flow value (e.g. a loop variable).
func (a TensorArray) WithFlow(f Tensor) TensorArray {
	return TensorArray{ta: core.TA{Handle: a.ta.Handle, Flow: f.o}, g: a.g}
}

// --- Gradients -------------------------------------------------------------

// GradOptions configures gradient construction.
type GradOptions = autodiff.Options

// Gradients builds dy/dx for each x (§5).
func (g *Graph) Gradients(y Tensor, xs []Tensor, opts GradOptions) ([]Tensor, error) {
	outs, err := autodiff.Gradients(g.b, y.o, unwrap(xs), opts)
	if err != nil {
		return nil, err
	}
	return g.wrapAll(outs), nil
}

// MustGradients is Gradients with default options, panicking on error
// (model-construction convenience).
func (g *Graph) MustGradients(y Tensor, xs ...Tensor) []Tensor {
	outs, err := g.Gradients(y, xs, GradOptions{})
	if err != nil {
		panic(err)
	}
	return outs
}
