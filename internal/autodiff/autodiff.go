// Package autodiff implements reverse-mode automatic differentiation over
// dataflow graphs with dynamic control flow (§5 of the paper).
//
// The algorithm is the classic backpropagation traversal (§5.1): walk the
// subgraph between y and the parameters in reverse topological order,
// invoking per-op gradient functions and accumulating partial gradients per
// forward value. Control-flow constructs are differentiated structurally:
//
//   - The gradient of a cond is a cond with the same predicate: incoming
//     gradients are routed into the branches with a Switch (the dual of the
//     forward Merge), each branch's subgraph is differentiated, and per-
//     captured-value gradients from the two branches meet in a Merge (the
//     dual of the forward guard Switch), with zeros filled in for a branch
//     that does not use the value.
//
//   - The gradient of a while loop is another while loop that runs the
//     gradient of the body for the same number of iterations, in reverse.
//     The forward loop is augmented with a trip counter; every forward
//     intermediate the gradient needs is pushed onto a stack in the forward
//     loop and popped in the gradient loop (Figure 9); gradients of loop
//     invariants are accumulated eagerly in extra loop variables; nested
//     constructs are handled by recursion. When an intermediate lives on an
//     untaken conditional branch, its push/pop are guarded by the same
//     predicate (pushed on a stack itself when the cond nests in the loop).
package autodiff

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Options configures gradient construction.
type Options struct {
	// SwapMemory enables device-to-host swapping of stack-saved
	// intermediates (§5.3); it is consulted by simulated-device runs.
	SwapMemory bool
}

// Gradients builds the gradient subgraph of scalar y with respect to xs and
// returns dy/dx for each x (zeros when x does not influence y). y and xs
// must live in the root context (loop results exit before differentiation,
// as in TensorFlow).
func Gradients(b *core.Builder, y graph.Output, xs []graph.Output, opts Options) ([]graph.Output, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	if core.CtxOf(y) != nil {
		return nil, fmt.Errorf("autodiff: y must be in the root context, got %s", y)
	}
	for _, x := range xs {
		if x.Node == nil {
			return nil, fmt.Errorf("autodiff: nil parameter output")
		}
	}
	e, err := newEngine(b, y, xs, opts)
	if err != nil {
		return nil, err
	}
	b.SetGradCapture(true)
	defer b.SetGradCapture(false)
	e.addGrad(y, b.OnesLike(y))
	e.diffBlock(nil, rootResolver{}, e.topo)
	if e.err != nil {
		return nil, e.err
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	out := make([]graph.Output, len(xs))
	for i, x := range xs {
		g := e.takeGrad(x)
		if g.Node == nil {
			g = b.ZerosLike(x)
		}
		out[i] = g
	}
	return out, b.Err()
}

// engine holds one Gradients invocation's state.
type engine struct {
	b    *core.Builder
	opts Options

	// between marks node ids on a path from xs to y.
	between map[int]bool
	// topo is a topological order of the full graph (back edges cut).
	topo []*graph.Node
	pos  map[int]int

	// grads accumulates partial gradients per forward output.
	grads map[graph.Output][]graph.Output

	// counters caches the forward trip-count output per while loop.
	counters map[*core.WhileContext]graph.Output
	// stacks caches the state-saving stack handle per (loop, value).
	stacks map[stackKey]graph.Output
	// pushWitness collects, per loop, root-visible values that witness
	// completion of all forward pushes; the gradient loop's entry takes
	// control dependencies on them (and they keep the push chains alive
	// through pruning).
	pushWitness map[*core.WhileContext][]graph.Output

	// generation identifies this Gradients invocation (distinct
	// invocations use distinct TensorArray gradient sources).
	generation int

	err error
}

// generationCounter issues engine generations; construction is single-
// threaded per builder, so a plain counter suffices.
var generationCounter int

type stackKey struct {
	wc *core.WhileContext
	v  graph.Output
}

func newEngine(b *core.Builder, y graph.Output, xs []graph.Output, opts Options) (*engine, error) {
	topo, err := b.G.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("autodiff: %w", err)
	}
	pos := make(map[int]int, len(topo))
	for i, n := range topo {
		pos[n.ID()] = i
	}
	// reachedFromX: forward closure over consumers.
	consumers := b.G.Consumers()
	fromX := map[int]bool{}
	var stack []*graph.Node
	for _, x := range xs {
		if !fromX[x.Node.ID()] {
			fromX[x.Node.ID()] = true
			stack = append(stack, x.Node)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range consumers[n.ID()] {
			if !fromX[c.ID()] {
				fromX[c.ID()] = true
				stack = append(stack, c)
			}
		}
	}
	// reachesY: backward closure over inputs.
	toY := map[int]bool{y.Node.ID(): true}
	stack = append(stack[:0], y.Node)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range n.Inputs() {
			if !toY[in.Node.ID()] {
				toY[in.Node.ID()] = true
				stack = append(stack, in.Node)
			}
		}
	}
	between := map[int]bool{}
	for id := range fromX {
		if toY[id] {
			between[id] = true
		}
	}
	generationCounter++
	return &engine{
		b:           b,
		opts:        opts,
		between:     between,
		topo:        topo,
		pos:         pos,
		generation:  generationCounter,
		grads:       map[graph.Output][]graph.Output{},
		counters:    map[*core.WhileContext]graph.Output{},
		stacks:      map[stackKey]graph.Output{},
		pushWitness: map[*core.WhileContext][]graph.Output{},
	}, nil
}

func (e *engine) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// addGrad records a partial gradient for forward value v.
func (e *engine) addGrad(v, g graph.Output) {
	if g.Node == nil {
		return
	}
	e.grads[v] = append(e.grads[v], g)
}

// takeGrad sums and returns the accumulated gradient for v (zero Output if
// none).
func (e *engine) takeGrad(v graph.Output) graph.Output {
	parts := e.grads[v]
	switch len(parts) {
	case 0:
		return graph.Output{}
	case 1:
		return parts[0]
	}
	sum := e.b.Op("AddN", nil, parts...)
	e.grads[v] = []graph.Output{sum}
	return sum
}

// unitOf determines the processing unit of node n within blockCtx:
//   - (n, true, false): ordinary node belonging to the block
//   - (construct, true, true): a nested construct (super-node) in the block
//   - (_, false, _): not part of the block (or block-own machinery).
func (e *engine) unitOf(n *graph.Node, blockCtx core.Context) (any, bool) {
	// Machinery of the block's own construct is a boundary, not a unit.
	c := core.ConstructOf(n)
	var chain core.Context
	if c != nil {
		if core.Canonical(c) == core.Canonical(blockCtx) {
			return nil, false
		}
		chain = c
	} else {
		chain = core.CtxOf(graph.Output{Node: n})
		if sameBlock(chain, blockCtx) {
			return n, true
		}
	}
	// Climb until we find the construct immediately inside blockCtx.
	for chain != nil {
		outer := chain.OuterCtx()
		if sameBlock(outer, blockCtx) {
			return core.Canonical(chain), true
		}
		chain = outer
	}
	return nil, false
}

// sameBlock compares contexts treating the two branch contexts of a cond as
// distinct blocks (branch bodies are differentiated separately).
func sameBlock(a, b core.Context) bool { return a == b }

// diffBlock differentiates the nodes of one block (context scope) in
// reverse topological order over *units* (ordinary nodes and whole
// constructs), given gradients already seeded in e.grads. A construct is a
// single super-node: it is processed only after every unit consuming any of
// its outputs, and before every unit feeding it.
func (e *engine) diffBlock(blockCtx core.Context, r valueResolver, order []*graph.Node) {
	if e.err != nil {
		return
	}
	// Partition the block's between-set nodes into units.
	unitOfNode := map[int]any{}
	var units []any
	seen := map[any]bool{}
	members := map[any][]*graph.Node{}
	for _, n := range order {
		if !e.between[n.ID()] {
			continue
		}
		u, ok := e.unitOf(n, blockCtx)
		if !ok {
			continue
		}
		unitOfNode[n.ID()] = u
		if !seen[u] {
			seen[u] = true
			units = append(units, u)
		}
		members[u] = append(members[u], n)
	}
	// Unit-level DAG: producer unit -> consumer unit. Back edges
	// (NextIteration inputs) stay inside one construct unit, so the unit
	// graph is acyclic for valid graphs.
	indeg := map[any]int{}
	succ := map[any][]any{}
	for _, u := range units {
		indeg[u] = indeg[u] + 0
		for _, n := range members[u] {
			for _, in := range n.Inputs() {
				v, ok := unitOfNode[in.Node.ID()]
				if !ok || v == u {
					continue
				}
				succ[v] = append(succ[v], u)
				indeg[u]++
			}
			for _, c := range n.ControlInputs() {
				v, ok := unitOfNode[c.ID()]
				if !ok || v == u {
					continue
				}
				succ[v] = append(succ[v], u)
				indeg[u]++
			}
		}
	}
	var topo []any
	var ready []any
	for _, u := range units {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		topo = append(topo, u)
		for _, s := range succ[u] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(topo) != len(units) {
		e.fail("autodiff: cyclic unit graph in %s", ctxDesc(blockCtx))
		return
	}
	for i := len(topo) - 1; i >= 0; i-- {
		if e.err != nil {
			return
		}
		switch c := topo[i].(type) {
		case *graph.Node:
			e.diffNode(c, r)
		case *core.CondContext:
			e.gradCond(c, r)
		case *core.WhileContext:
			e.gradWhile(c, r)
		default:
			e.fail("autodiff: unknown construct %T", topo[i])
		}
	}
}

// diffNode invokes the registered gradient function for an ordinary node.
func (e *engine) diffNode(n *graph.Node, r valueResolver) {
	outGrads := make([]graph.Output, n.NumOutputs())
	any := false
	for j := range outGrads {
		outGrads[j] = e.takeGrad(n.Out(j))
		if outGrads[j].Node != nil {
			any = true
		}
	}
	if !any {
		return
	}
	switch n.Op() {
	case "Switch", "Merge", "Enter", "Exit", "NextIteration":
		e.fail("autodiff: raw %s node %s has gradients; differentiating a gradient graph (second-order) is not supported", n.Op(), n.Name())
		return
	}
	gf, ok := gradRegistry[n.Op()]
	if !ok {
		if noGradOps[n.Op()] {
			return
		}
		e.fail("autodiff: no gradient registered for op %s (node %s)", n.Op(), n.Name())
		return
	}
	// Colocate gradient ops with the forward op they differentiate, so
	// model-parallel placements keep their parallelism in backprop
	// (§6.4's measurement includes the gradient computation).
	savedDev := e.b.Device()
	e.b.SetDevice(n.Device())
	gc := &GradCtx{e: e, b: e.b, Node: n, r: r}
	inGrads := gf(gc, outGrads)
	e.b.SetDevice(savedDev)
	if e.err != nil {
		return
	}
	if len(inGrads) > n.NumInputs() {
		e.fail("autodiff: grad of %s returned %d input grads for %d inputs", n.Op(), len(inGrads), n.NumInputs())
		return
	}
	for i, g := range inGrads {
		if g.Node != nil {
			e.addGrad(n.Input(i), g)
		}
	}
}

// GradCtx is what gradient functions receive: the forward node plus access
// to its forward input/output values *as seen from the gradient code* (in a
// gradient loop these are stack pops of saved intermediates).
type GradCtx struct {
	e    *engine
	b    *core.Builder
	Node *graph.Node
	r    valueResolver
}

// B exposes the builder for constructing gradient ops.
func (gc *GradCtx) B() *core.Builder { return gc.b }

// In returns the resolved forward value of input i.
func (gc *GradCtx) In(i int) graph.Output {
	v, err := gc.r.resolve(gc.e, gc.Node.Input(i))
	if err != nil {
		gc.e.fail("autodiff: grad of %s: %v", gc.Node.Name(), err)
		return graph.Output{}
	}
	return v
}

// Out returns the resolved forward value of output j.
func (gc *GradCtx) Out(j int) graph.Output {
	v, err := gc.r.resolve(gc.e, gc.Node.Out(j))
	if err != nil {
		gc.e.fail("autodiff: grad of %s: %v", gc.Node.Name(), err)
		return graph.Output{}
	}
	return v
}

// GradFunc computes input gradients from output gradients. Entries of
// outGrads may be zero Outputs (no gradient flowed); returned entries may be
// zero Outputs (no gradient for that input).
type GradFunc func(gc *GradCtx, outGrads []graph.Output) []graph.Output

var (
	gradRegistry = map[string]GradFunc{}
	noGradOps    = map[string]bool{}
)

// RegisterGrad installs a gradient function for an op.
func RegisterGrad(op string, f GradFunc) {
	if _, dup := gradRegistry[op]; dup {
		panic("autodiff: duplicate grad for " + op)
	}
	gradRegistry[op] = f
}

// RegisterNoGrad marks an op as having no gradient (gradients flowing into
// it are silently dropped — e.g. shape queries and comparisons).
func RegisterNoGrad(ops ...string) {
	for _, o := range ops {
		noGradOps[o] = true
	}
}
