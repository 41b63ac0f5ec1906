// Dtype, shape and value inference: one fixpoint over one set of facts
// (ops.Fact), shared by Check and EstimateMemory.
//
// An op's own facts live on its registration: ops.OpDef.Infer computes a
// node's outputs from its inputs and attributes alone. What stays here is
// what no single node knows: control flow (Switch, Merge, Enter, Exit,
// NextIteration, LoopCond), whose facts come from a loop's back edge or a
// predicate's frame; the variable, stack and TensorArray ops, whose element
// facts are joined over every write anywhere in the graph; and the fixpoint
// that runs the rules.
//
// Facts live per output port. A port with no fact has not been reached
// yet; a zero fact means reached but unknown. The pass sweeps the
// topological order until no fact changes, each sweep re-running only the
// nodes whose inputs (or resource reads) changed since their last run. A
// node whose input is not reached yet waits, except Merge, which joins only
// the arms it has reached (a NextIteration back edge is not reached on the
// first sweep), and a join only ever widens: a loop-carried value whose
// shape changes across iterations ends with -1 in the changing dims or an
// unknown rank, never with the shape of its first iteration. Resource state
// (what is written to a tensor array, pushed on a stack or assigned to a
// variable) is joined the same way. Once a sweep is stable, whatever a node
// still waits on (a read of a resource nothing writes, an input outside the
// checked set) is read as unknown and the sweep runs again. The number of
// sweeps is bounded.
//
// Diagnostics come from the final facts only: each node keeps what its last
// run found, and its last run saw its inputs' final facts. Only definite
// conflicts are reported, never "unknown".
package verify

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// knownNonUnit reports a shape that is fully known and provably not a
// single element. The executor accepts any one-element tensor wherever a
// "scalar" predicate is required (Switch, LoopCond), so shape [1] must
// pass; only a definite multi-element shape is an error.
func knownNonUnit(t ops.Fact) bool {
	n, ok := t.NumElems()
	return ok && n != 1
}

func sameFact(a, b ops.Fact) bool {
	return a.DTypeOK == b.DTypeOK && (!a.DTypeOK || a.DType == b.DType) && a.RankOK == b.RankOK && slices.Equal(a.Shape, b.Shape) &&
		(a.Val == nil) == (b.Val == nil) && slices.Equal(a.Val, b.Val) && a.Res == b.Res
}

// maxInferSweeps bounds the fixpoint. A sweep propagates a change through
// one back edge or one resource, and each fact can only widen a few times.
const maxInferSweeps = 8

// nodeFacts is inference's record of one node.
type nodeFacts struct {
	out   []ops.Fact  // one fact per output port
	diags Diagnostics // what the node's last run found
	def   *ops.OpDef  // the node's op, looked up at its first run
	// Ticks: of the last run that reached the node (0 = not reached yet),
	// and of the last change to out. readsRes marks a last run that read
	// resource state.
	ranAt, changedAt int32
	readsRes         bool
}

// inferTypes runs inferNode over the topological order to a fixpoint, each
// sweep re-running only the nodes whose inputs or resource reads changed
// since their last run, then reports the port-typing diagnostics (Switch/
// LoopCond predicates, arithmetic operand mismatches, MatMul inner
// dimensions, reduction axes) of every node's last run. The last sweep the
// bound allows reads what is unreached as unknown.
func (c *checker) inferTypes() {
	maxID, ports, maxIns := -1, 0, 0
	for _, n := range c.order {
		maxID, ports, maxIns = max(maxID, n.ID()), ports+n.NumOutputs(), max(maxIns, n.NumInputs())
	}
	c.facts = make([]nodeFacts, maxID+1)
	all := make([]ops.Fact, ports)
	for _, n := range c.order {
		k := n.NumOutputs()
		c.facts[n.ID()].out, all = all[:k:k], all[k:]
	}
	// The scratch of one node's run: its input facts, then its outputs.
	scratch := make([]ops.Fact, maxIns+2)
	c.ictx.Ins, c.out = scratch[:0:maxIns], scratch[maxIns:maxIns]
	c.elems = map[string]ops.Fact{}
	c.counts = map[string]int{}
	c.ictx.Node = c
	for sweep := 1; ; sweep++ {
		c.closed = c.closed || sweep == maxInferSweeps
		c.changed, c.waited = false, false
		for _, n := range c.order {
			if c.stale(n) {
				c.run(n)
			}
		}
		if !c.changed && (c.closed || !c.waited) || sweep == maxInferSweeps {
			break
		}
		c.closed = c.closed || !c.changed
	}
	for _, n := range c.order {
		c.diags = append(c.diags, c.facts[n.ID()].diags...)
	}
}

// stale reports whether n must run again: it has not been reached, an input
// changed after its last run, or resource state it read did.
func (c *checker) stale(n *graph.Node) bool {
	s := &c.facts[n.ID()]
	if s.ranAt == 0 || s.readsRes && s.ranAt < c.resAt {
		return true
	}
	for _, in := range n.InputsRef() {
		if in.Node != nil && in.Node.ID() < len(c.facts) && c.facts[in.Node.ID()].changedAt > s.ranAt {
			return true
		}
	}
	return false
}

// run applies inferNode to n and publishes its outputs and diagnostics,
// unless n waits on something not reached yet.
func (c *checker) run(n *graph.Node) {
	c.tick++
	mark := len(c.diags)
	c.readsRes = false
	s := &c.facts[n.ID()]
	if s.def == nil {
		s.def, _ = ops.Get(n.Op())
	}
	// A node may declare fewer outputs than its op has (a diagnosed
	// output-arity error): the rules still see one fact per op output.
	k := n.NumOutputs()
	if s.def != nil {
		k = max(k, s.def.NumOutputs)
	}
	c.out = c.out[:0]
	for range k {
		c.out = append(c.out, ops.Fact{})
	}
	if !c.inferNode(n, s.def) {
		c.waited = true
		c.diags = c.diags[:mark]
		return
	}
	if s.ranAt == 0 {
		s.changedAt = c.tick
	}
	for port, f := range c.out[:n.NumOutputs()] {
		if !sameFact(s.out[port], f) {
			s.out[port] = f
			s.changedAt = c.tick
		}
	}
	if s.changedAt == c.tick {
		c.changed = true
	}
	s.ranAt, s.readsRes = c.tick, c.readsRes
	s.diags = append(s.diags[:0], c.diags[mark:]...)
	c.diags = c.diags[:mark]
}

// fact is what is known about one output port; false while it is unreached.
func (c *checker) fact(o graph.Output) (ops.Fact, bool) {
	if o.Node == nil || o.Node.ID() >= len(c.facts) {
		return ops.Fact{}, false
	}
	s := &c.facts[o.Node.ID()]
	if s.ranAt == 0 || o.Index < 0 || o.Index >= len(s.out) {
		return ops.Fact{}, false
	}
	return s.out[o.Index], true
}

// in returns the dtype and shape of data input i (zero value = unknown).
func (c *checker) in(n *graph.Node, i int) ops.Fact {
	return c.inFact(n, i).Type()
}

func (c *checker) inFact(n *graph.Node, i int) ops.Fact {
	ins := n.InputsRef()
	if i < 0 || i >= len(ins) {
		return ops.Fact{}
	}
	f, _ := c.fact(ins[i])
	return f
}

// inName names data input i for diagnostics, tolerating arity violations
// that were already diagnosed by checkStructure.
func inName(n *graph.Node, i int) string {
	ins := n.InputsRef()
	if i < 0 || i >= len(ins) {
		return fmt.Sprintf("<missing input %d>", i)
	}
	return ins[i].String()
}

// Addf and InputName make the checker the ops.InferNode of the node whose
// op's rule is running.
func (c *checker) Addf(port int, code, format string, args ...any) {
	c.addf(c.cur, port, code, format, args...)
}

func (c *checker) InputName(i int) string { return inName(c.cur, i) }

// joinElem widens a resource's element type by one write.
func (c *checker) joinElem(id string, t ops.Fact) {
	if old, ok := c.elems[id]; ok {
		j, ok := ops.Join(old, t)
		if !ok {
			j = ops.Fact{}
		}
		if sameFact(j, old) {
			return
		}
		t = j
	}
	c.elems[id] = t
	c.resAt, c.changed = c.tick, true // every node that read it runs again
}

// elem is a resource's element type; false while nothing written to it has
// been reached.
func (c *checker) elem(id string) (ops.Fact, bool) {
	c.readsRes = true
	t, ok := c.elems[id]
	return t, ok
}

// readElem is elem for a node that reads the resource's value: once the
// sweep is closed, a resource nothing writes reads as unknown.
func (c *checker) readElem(id string) (ops.Fact, bool) {
	t, ok := c.elem(id)
	return t, ok || c.closed
}

// count is a tensor array's element count; -1 unknown.
func (c *checker) count(id string) int {
	c.readsRes = true
	if v, ok := c.counts[id]; ok {
		return v
	}
	return -1
}

// tensorArray registers a tensor array, with the element count when count
// is known (the first known count stands: a dynamic size and the length
// of the value unstacked into the array describe the same array).
func (c *checker) tensorArray(id string, count int) {
	old, ok := c.counts[id]
	if !ok || (old < 0 && count >= 0) {
		c.counts[id] = count
		c.resAt, c.changed = c.tick, true
	}
}

// inferNode computes n's output facts into c.out from its input facts and
// the resource state, and reports false when n must wait for something not
// reached yet. The graph-level rules are here; every other op's is its
// def.Infer. An output no rule names stays unknown.
func (c *checker) inferNode(n *graph.Node, def *ops.OpDef) bool {
	op := n.Op()
	if op != "Merge" && !c.closed {
		for _, in := range n.InputsRef() {
			if _, ok := c.fact(in); !ok {
				return false
			}
		}
	}
	switch op {
	case "Enter", "Exit", "NextIteration":
		c.out[0] = c.inFact(n, 0)
	case "Merge":
		f, reached := c.joinArms(n)
		if !reached && !c.closed {
			return false
		}
		c.out[0] = f
	case "Switch":
		pred := c.in(n, 1)
		if pred.DTypeOK && pred.DType != tensor.Bool {
			c.addf(n, 1, "switch-pred-dtype", "predicate %s is %s; Switch requires a bool", inName(n, 1), pred.DType)
		}
		if knownNonUnit(pred) {
			c.addf(n, 1, "switch-pred-shape", "predicate %s has shape %v; Switch requires a single-element bool", inName(n, 1), pred.Shape)
		}
		c.out[0] = c.inFact(n, 0)
		c.out[1] = c.out[0]
	case "LoopCond":
		in := c.in(n, 0)
		if in.DTypeOK && in.DType != tensor.Bool {
			c.addf(n, 0, "loopcond-dtype", "input is %s; LoopCond requires a bool", in.DType)
		}
		if knownNonUnit(in) {
			c.addf(n, 0, "loopcond-shape", "input has shape %v; LoopCond requires a single-element bool", in.Shape)
		}
		c.out[0] = ops.ScalarFact(tensor.Bool)
	case "VarRead", "ScatterAddVar", "ScatterUpdateVar":
		// A scatter writes rows in place: its output is the variable's
		// value, of the type every Assign gave it.
		t, ok := c.readElem("var/" + n.AttrString("var"))
		if !ok {
			return false
		}
		c.out[0] = t
	case "Assign", "AssignAdd", "AssignSub", "ApplyGradientDescent":
		// Every write is shaped like the variable and echoes its new value.
		t := c.in(n, 0)
		if name := n.AttrString("var"); name != "" {
			c.joinElem("var/"+name, t)
			t, _ = c.elem("var/" + name)
		}
		c.out[0] = t
	case "TensorArray":
		// TensorArray(size) -> (handle, flow).
		id, count := "ta/"+n.Name(), -1
		if f := c.inFact(n, 0); f.Val != nil && f.RankOK && len(f.Shape) == 0 && f.Val[0] > 0 {
			count = f.Val[0]
		}
		c.tensorArray(id, count)
		c.out[0] = ops.Fact{Res: id}
		c.out[1] = ops.ScalarFact(tensor.Float)
	case "TensorArrayGrad":
		// The gradient array of a forward array: same count, and elements
		// shaped like the forward ones.
		if fwd := c.inFact(n, 0).Res; fwd != "" {
			id := fwd + "@grad/" + n.AttrString("source")
			c.tensorArray(id, c.count(fwd))
			if t, ok := c.elem(fwd); ok {
				c.joinElem(id, t)
			}
			c.out[0] = ops.Fact{Res: id}
		}
		c.out[1] = ops.ScalarFact(tensor.Float)
	case "TensorArrayWrite":
		// TensorArrayWrite(handle, index, value, flow) -> flow.
		if id := c.inFact(n, 0).Res; id != "" {
			c.tensorArray(id, -1)
			c.joinElem(id, c.in(n, 2))
		}
		c.out[0] = ops.ScalarFact(tensor.Float)
	case "TensorArrayUnstack":
		// TensorArrayUnstack(handle, value, flow) -> flow.
		if id := c.inFact(n, 0).Res; id != "" {
			v := c.in(n, 1)
			count := -1
			if v.RankOK && len(v.Shape) >= 1 {
				count = v.Shape[0]
			}
			c.tensorArray(id, count)
			switch {
			case !v.RankOK:
				c.joinElem(id, ops.Fact{})
			case len(v.Shape) >= 1:
				c.joinElem(id, ops.Fact{DType: v.DType, DTypeOK: v.DTypeOK, RankOK: true, Shape: slices.Clone(v.Shape[1:])})
			}
		}
		c.out[0] = ops.ScalarFact(tensor.Float)
	case "TensorArrayRead", "TensorArrayStack", "StackPop":
		// (handle, ...) -> element (TensorArrayStack: all of them); StackPop
		// also returns the stack's remaining count.
		if len(c.out) > 1 {
			c.out[1] = ops.ScalarFact(tensor.Int)
		}
		id := c.inFact(n, 0).Res
		if id == "" {
			break
		}
		elem, ok := c.readElem(id)
		if !ok {
			return false
		}
		switch {
		case op != "TensorArrayStack":
			c.out[0] = elem
		case elem.RankOK:
			c.out[0] = ops.Fact{DType: elem.DType, DTypeOK: elem.DTypeOK, RankOK: true, Shape: append([]int{c.count(id)}, elem.Shape...)}
		}
	case "TensorArraySize":
		c.out[0] = ops.ScalarFact(tensor.Int)
		if v := c.count(c.inFact(n, 0).Res); v >= 0 {
			c.out[0].Val = []int{v}
		}
	case "Stack":
		c.out[0] = ops.Fact{Res: "stack/" + n.Name()}
	case "StackPush":
		// StackPush(handle, value, token) -> (value, token).
		v := c.in(n, 1)
		if id := c.inFact(n, 0).Res; id != "" {
			c.joinElem(id, v)
		}
		c.out[0] = v
		c.out[1] = ops.ScalarFact(tensor.Int)
	default:
		// An op without a rule (an unknown op, Recv) is unknown to the
		// type system: every output stays unknown, which propagates as
		// "no opinion" rather than a false conflict.
		if def == nil || def.Infer == nil {
			break
		}
		c.cur, c.ictx.Op, c.ictx.Attrs, c.ictx.Out = n, op, n.AttrsMap(), c.out
		c.ictx.Ins = c.ictx.Ins[:0]
		for i := range n.InputsRef() {
			c.ictx.Ins = append(c.ictx.Ins, c.inFact(n, i))
		}
		def.Infer(&c.ictx)
	}
	return true
}

// joinArms joins the inputs that have been reached; false when none has.
// A constant or a resource survives only where every arm carries the same
// one.
func (c *checker) joinArms(n *graph.Node) (ops.Fact, bool) {
	var acc ops.Fact
	reached := false
	for i, in := range n.InputsRef() {
		f, ok := c.fact(in)
		if !ok {
			continue
		}
		if !reached {
			acc, reached = f, true
			continue
		}
		j, ok := ops.Join(acc, f)
		if !ok {
			c.addf(n, i, "dtype-mismatch", "input %s is %s but earlier inputs are %s", in, f.DType, acc.DType)
			return ops.Fact{}, true
		}
		acc = j
	}
	return acc, reached
}
