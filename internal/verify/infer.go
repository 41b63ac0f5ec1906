// Dtype, shape and value inference: one transfer function (inferNode) over
// one set of facts, shared by Check and EstimateMemory.
//
// Facts live per output port. A port with no fact has not been reached
// yet; a zero typeInfo means reached but unknown. The pass sweeps the
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
//
// A shape is []int with -1 for an unknown dimension; a nil shape with
// rankOK=false means even the rank is unknown.
package verify

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// typeInfo is what the verifier knows about one output port.
type typeInfo struct {
	dt     tensor.DType
	dtOK   bool
	shape  []int
	rankOK bool
}

func known(t *tensor.Tensor) typeInfo {
	return typeInfo{dt: t.DType(), dtOK: true, shape: t.Shape(), rankOK: true}
}

func scalarOf(dt tensor.DType) typeInfo {
	return typeInfo{dt: dt, dtOK: true, shape: []int{}, rankOK: true}
}

// join merges two flows into one port (Merge, AddN, Select arms): dtypes
// must agree where both are known; dims degrade to -1 where they differ.
func join(a, b typeInfo) (typeInfo, bool) {
	out := typeInfo{}
	switch {
	case a.dtOK && b.dtOK:
		if a.dt != b.dt {
			return out, false
		}
		out.dt, out.dtOK = a.dt, true
	case a.dtOK:
		out.dt, out.dtOK = a.dt, true
	case b.dtOK:
		out.dt, out.dtOK = b.dt, true
	}
	if a.rankOK && b.rankOK && len(a.shape) == len(b.shape) {
		out.rankOK = true
		out.shape = make([]int, len(a.shape))
		for i := range a.shape {
			if a.shape[i] == b.shape[i] {
				out.shape[i] = a.shape[i]
			} else {
				out.shape[i] = -1
			}
		}
	}
	return out, true
}

// numElems is t's element count; false unless every dim is known.
func numElems(t typeInfo) (int, bool) {
	if !t.rankOK {
		return 0, false
	}
	n := 1
	for _, d := range t.shape {
		if d < 0 {
			return 0, false
		}
		n *= d
	}
	return n, true
}

func dimsKnown(t typeInfo) bool {
	_, ok := numElems(t)
	return ok
}

// knownNonUnit reports a shape that is fully known and provably not a
// single element. The executor accepts any one-element tensor wherever a
// "scalar" predicate is required (Switch, LoopCond), so shape [1] must
// pass; only a definite multi-element shape is an error.
func knownNonUnit(t typeInfo) bool {
	n, ok := numElems(t)
	return ok && n != 1
}

// numeric ops reject Bool and Str operands at runtime; catching the dtype
// here turns a step failure into a construction-time diagnostic.
func numericOK(dt tensor.DType) bool { return dt == tensor.Float || dt == tensor.Int }

// fact is what the verifier knows about one output port: its type, the
// constant it carries when it is an int scalar or vector inference can
// compute (shapes, sizes, sizes of tensor arrays), and the resource a
// handle names.
type fact struct {
	typeInfo
	val []int  // the constant's elements; nil = not a known constant
	res string // "ta/<node>", "ta/<node>@grad/<source>", "stack/<node>"; "" = not a handle
}

func sameType(a, b typeInfo) bool {
	return a.dtOK == b.dtOK && (!a.dtOK || a.dt == b.dt) && a.rankOK == b.rankOK && slices.Equal(a.shape, b.shape)
}

func sameFact(a, b fact) bool {
	return sameType(a.typeInfo, b.typeInfo) && (a.val == nil) == (b.val == nil) && slices.Equal(a.val, b.val) && a.res == b.res
}

// maxInferSweeps bounds the fixpoint. A sweep propagates a change through
// one back edge or one resource, and each fact can only widen a few times.
const maxInferSweeps = 8

// nodeFacts is inference's record of one node.
type nodeFacts struct {
	out   []fact      // one fact per output port
	diags Diagnostics // what the node's last run found
	// Ticks: of the last run that reached the node (0 = not reached yet),
	// and of the last change to out. readsRes marks a last run that read
	// resource state.
	ranAt, changedAt int
	readsRes         bool
}

// inferTypes runs inferNode over the topological order to a fixpoint, each
// sweep re-running only the nodes whose inputs or resource reads changed
// since their last run, then reports the port-typing diagnostics (Switch/
// LoopCond predicates, arithmetic operand mismatches, MatMul inner
// dimensions, reduction axes) of every node's last run. The last sweep the
// bound allows reads what is unreached as unknown.
func (c *checker) inferTypes() {
	maxID, ports := -1, 0
	for _, n := range c.order {
		maxID, ports = max(maxID, n.ID()), ports+n.NumOutputs()
	}
	c.facts = make([]nodeFacts, maxID+1)
	all := make([]fact, ports)
	for _, n := range c.order {
		k := n.NumOutputs()
		c.facts[n.ID()].out, all = all[:k:k], all[k:]
	}
	c.elems = map[string]typeInfo{}
	c.counts = map[string]int{}
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
	c.out = c.out[:0]
	for port := 0; port < n.NumOutputs(); port++ {
		c.out = append(c.out, fact{})
	}
	if !c.inferNode(n) {
		c.waited = true
		c.diags = c.diags[:mark]
		return
	}
	s := &c.facts[n.ID()]
	if s.ranAt == 0 {
		s.changedAt = c.tick
	}
	for port, f := range c.out {
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
func (c *checker) fact(o graph.Output) (fact, bool) {
	if o.Node == nil || o.Node.ID() >= len(c.facts) {
		return fact{}, false
	}
	s := &c.facts[o.Node.ID()]
	if s.ranAt == 0 || o.Index < 0 || o.Index >= len(s.out) {
		return fact{}, false
	}
	return s.out[o.Index], true
}

// in returns what is known about data input i (zero value = unknown).
func (c *checker) in(n *graph.Node, i int) typeInfo {
	return c.inFact(n, i).typeInfo
}

func (c *checker) inFact(n *graph.Node, i int) fact {
	ins := n.InputsRef()
	if i < 0 || i >= len(ins) {
		return fact{}
	}
	f, _ := c.fact(ins[i])
	return f
}

// inInts returns data input i's constant when it is an int of the given
// rank (0 for a scalar, 1 for a shape vector).
func (c *checker) inInts(n *graph.Node, i, rank int) ([]int, bool) {
	f := c.inFact(n, i)
	if f.val == nil || !f.rankOK || len(f.shape) != rank {
		return nil, false
	}
	return f.val, true
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

// set and setFact record an output of the node being inferred; run
// publishes them.
func (c *checker) set(port int, t typeInfo) {
	c.setFact(port, fact{typeInfo: t})
}

func (c *checker) setFact(port int, f fact) {
	if port < len(c.out) {
		c.out[port] = f
	}
}

// joinElem widens a resource's element type by one write.
func (c *checker) joinElem(id string, t typeInfo) {
	if old, ok := c.elems[id]; ok {
		j, ok := join(old, t)
		if !ok {
			j = typeInfo{}
		}
		if sameType(j, old) {
			return
		}
		t = j
	}
	c.elems[id] = t
	c.resAt, c.changed = c.tick, true // every node that read it runs again
}

// elem is a resource's element type; false while nothing written to it has
// been reached.
func (c *checker) elem(id string) (typeInfo, bool) {
	c.readsRes = true
	t, ok := c.elems[id]
	return t, ok
}

// readElem is elem for a node that reads the resource's value: once the
// sweep is closed, a resource nothing writes reads as unknown.
func (c *checker) readElem(id string) (typeInfo, bool) {
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

// broadcastResult applies NumPy-style broadcasting when both operand shapes
// are fully known, diagnosing impossible combinations.
func (c *checker) broadcastResult(n *graph.Node, a, b typeInfo) typeInfo {
	if !dimsKnown(a) || !dimsKnown(b) {
		return typeInfo{}
	}
	shape, err := tensor.BroadcastShapes(a.shape, b.shape)
	if err != nil {
		c.addf(n, 1, "shape-mismatch", "operand shapes %v and %v do not broadcast", a.shape, b.shape)
		return typeInfo{}
	}
	return typeInfo{shape: shape, rankOK: true}
}

// inferNode is the transfer function: it computes n's output facts into
// c.out from its input facts and the resource state, and reports false when
// n must wait for something not reached yet. An output no rule names stays
// unknown.
func (c *checker) inferNode(n *graph.Node) bool {
	op := n.Op()
	if op != "Merge" && !c.closed {
		for _, in := range n.InputsRef() {
			if _, ok := c.fact(in); !ok {
				return false
			}
		}
	}
	switch op {
	case "Const":
		t, ok := n.Attr("value").(*tensor.Tensor)
		if !ok || t == nil {
			c.addf(n, -1, "const-no-value", "Const has no tensor value attribute")
			break
		}
		f := fact{typeInfo: known(t)}
		if t.DType() == tensor.Int && len(t.ShapeRef()) <= 1 {
			f.val = make([]int, len(t.I))
			for i, v := range t.I {
				f.val[i] = int(v)
			}
		}
		c.setFact(0, f)
	case "Placeholder":
		ti := typeInfo{}
		if dv, ok := n.Attr("dtype").(int); ok {
			ti.dt, ti.dtOK = tensor.DType(dv), true
		}
		if sv, ok := n.Attr("shape").([]int); ok {
			ti.shape, ti.rankOK = sv, true
		}
		c.set(0, ti)
	case "Identity", "StopGradient", "Enter", "Exit", "NextIteration":
		c.setFact(0, c.inFact(n, 0))
	case "Merge", "AddN":
		f, reached := c.joinArms(n)
		if !reached && !c.closed {
			return false
		}
		if op == "AddN" {
			f = fact{typeInfo: f.typeInfo} // a sum carries no operand's constant
		}
		c.setFact(0, f)
	case "Switch":
		pred := c.in(n, 1)
		if pred.dtOK && pred.dt != tensor.Bool {
			c.addf(n, 1, "switch-pred-dtype", "predicate %s is %s; Switch requires a bool", inName(n, 1), pred.dt)
		}
		if knownNonUnit(pred) {
			c.addf(n, 1, "switch-pred-shape", "predicate %s has shape %v; Switch requires a single-element bool", inName(n, 1), pred.shape)
		}
		data := c.inFact(n, 0)
		c.setFact(0, data)
		c.setFact(1, data)
	case "LoopCond":
		in := c.in(n, 0)
		if in.dtOK && in.dt != tensor.Bool {
			c.addf(n, 0, "loopcond-dtype", "input is %s; LoopCond requires a bool", in.dt)
		}
		if knownNonUnit(in) {
			c.addf(n, 0, "loopcond-shape", "input has shape %v; LoopCond requires a single-element bool", in.shape)
		}
		c.set(0, scalarOf(tensor.Bool))
	case "Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "Mod":
		a, b := c.in(n, 0), c.in(n, 1)
		for i, t := range []typeInfo{a, b} {
			if t.dtOK && !numericOK(t.dt) {
				c.addf(n, i, "arith-dtype", "operand %s is %s; %s requires a numeric operand", inName(n, i), t.dt, op)
			}
		}
		if a.dtOK && b.dtOK && a.dt != b.dt {
			c.addf(n, 1, "dtype-mismatch", "operands are %s and %s; %s requires matching dtypes", a.dt, b.dt, op)
		}
		out := c.broadcastResult(n, a, b)
		if a.dtOK && numericOK(a.dt) {
			out.dt, out.dtOK = a.dt, true
		} else if b.dtOK && numericOK(b.dt) {
			out.dt, out.dtOK = b.dt, true
		}
		c.set(0, out)
	case "Greater", "GreaterEqual", "Less", "LessEqual", "Equal", "NotEqual":
		a, b := c.in(n, 0), c.in(n, 1)
		if a.dtOK && b.dtOK && a.dt != b.dt {
			c.addf(n, 1, "dtype-mismatch", "operands are %s and %s; %s requires matching dtypes", a.dt, b.dt, op)
		}
		out := c.broadcastResult(n, a, b)
		out.dt, out.dtOK = tensor.Bool, true
		c.set(0, out)
	case "LogicalAnd", "LogicalOr":
		a, b := c.in(n, 0), c.in(n, 1)
		for i, t := range []typeInfo{a, b} {
			if t.dtOK && t.dt != tensor.Bool {
				c.addf(n, i, "logical-dtype", "operand %s is %s; %s requires bool", inName(n, i), t.dt, op)
			}
		}
		out := c.broadcastResult(n, a, b)
		out.dt, out.dtOK = tensor.Bool, true
		c.set(0, out)
	case "LogicalNot":
		in := c.in(n, 0)
		if in.dtOK && in.dt != tensor.Bool {
			c.addf(n, 0, "logical-dtype", "operand is %s; LogicalNot requires bool", in.dt)
		}
		in.dt, in.dtOK = tensor.Bool, true
		c.set(0, in)
	case "Neg", "Abs", "Exp", "Log", "Sqrt", "Square", "Sigmoid", "Tanh", "Relu", "Sign", "Softmax", "LogSoftmax":
		in := c.in(n, 0)
		if in.dtOK && !numericOK(in.dt) {
			c.addf(n, 0, "arith-dtype", "operand is %s; %s requires a numeric operand", in.dt, op)
		}
		c.set(0, in)
	case "SigmoidGrad", "TanhGrad":
		y, dy := c.in(n, 0), c.in(n, 1)
		for i, t := range []typeInfo{y, dy} {
			if t.dtOK && t.dt != tensor.Float {
				c.addf(n, i, "arith-dtype", "operand %s is %s; %s requires a float operand", inName(n, i), t.dt, op)
			}
		}
		// Equal shapes: a dim either operand knows is the output's, and
		// two known dims that differ are an error.
		out := typeInfo{dt: tensor.Float, dtOK: true}
		switch {
		case !y.rankOK:
			out.shape, out.rankOK = dy.shape, dy.rankOK
		case !dy.rankOK:
			out.shape, out.rankOK = y.shape, true
		case len(y.shape) != len(dy.shape):
			c.addf(n, 1, "shape-mismatch", "operand shapes %v and %v differ; %s requires equal shapes", y.shape, dy.shape, op)
		default:
			out.shape, out.rankOK = slices.Clone(y.shape), true
			for i, d := range dy.shape {
				if d >= 0 && out.shape[i] >= 0 && d != out.shape[i] {
					c.addf(n, 1, "shape-mismatch", "operand shapes %v and %v differ; %s requires equal shapes", y.shape, dy.shape, op)
					out = typeInfo{dt: tensor.Float, dtOK: true}
					break
				}
				out.shape[i] = max(out.shape[i], d)
			}
		}
		c.set(0, out)
	case "ZerosLike", "OnesLike":
		c.set(0, c.in(n, 0))
	case "MatMul":
		a, b := c.in(n, 0), c.in(n, 1)
		if a.dtOK && b.dtOK && a.dt != b.dt {
			c.addf(n, 1, "dtype-mismatch", "operands are %s and %s; MatMul requires matching dtypes", a.dt, b.dt)
		}
		out := typeInfo{}
		if a.dtOK {
			out.dt, out.dtOK = a.dt, true
		} else if b.dtOK {
			out.dt, out.dtOK = b.dt, true
		}
		// Matrices, or batches of them (rank 3, leading axis shared); the
		// node's transpose_a / transpose_b say how each operand's last
		// two axes are stored.
		for i, t := range []typeInfo{a, b} {
			if t.rankOK && len(t.shape) != 2 && len(t.shape) != 3 {
				c.addf(n, i, "matmul-rank", "operand %s has rank %d; MatMul requires matrices or rank-3 batches of them", inName(n, i), len(t.shape))
			}
		}
		if r := len(a.shape); a.rankOK && b.rankOK && (r == 2 || r == 3) {
			if len(b.shape) != r {
				c.addf(n, 1, "matmul-rank", "operands have ranks %d and %d; MatMul requires equal ranks", r, len(b.shape))
			} else {
				m, k := a.shape[r-2], a.shape[r-1]
				if n.AttrBool("transpose_a") {
					m, k = k, m
				}
				k2, cols := b.shape[r-2], b.shape[r-1]
				if n.AttrBool("transpose_b") {
					k2, cols = cols, k2
				}
				if k >= 0 && k2 >= 0 && k != k2 {
					c.addf(n, 1, "matmul-inner", "inner dimensions disagree: %v x %v (transpose_a %t, transpose_b %t)",
						a.shape, b.shape, n.AttrBool("transpose_a"), n.AttrBool("transpose_b"))
				}
				out.shape, out.rankOK = []int{m, cols}, true
				if r == 3 {
					batch := a.shape[0]
					if batch >= 0 && b.shape[0] >= 0 && batch != b.shape[0] {
						c.addf(n, 1, "matmul-inner", "batch dimensions disagree: %v x %v", a.shape, b.shape)
					} else if batch < 0 {
						batch = b.shape[0]
					}
					out.shape = []int{batch, m, cols}
				}
			}
		}
		c.set(0, out)
	case "Select":
		pred, x, y := c.in(n, 0), c.in(n, 1), c.in(n, 2)
		if pred.dtOK && pred.dt != tensor.Bool {
			c.addf(n, 0, "select-pred-dtype", "condition is %s; Select requires bool", pred.dt)
		}
		out, ok := join(x, y)
		if !ok {
			c.addf(n, 2, "dtype-mismatch", "branches are %s and %s; Select requires matching dtypes", x.dt, y.dt)
			out = typeInfo{}
		}
		c.set(0, out)
	case "Sum", "Mean", "Max", "Min":
		in := c.in(n, 0)
		axes, _ := n.Attr("axes").([]int)
		keep := n.AttrBool("keep_dims")
		out := typeInfo{dt: in.dt, dtOK: in.dtOK}
		if op == "Mean" {
			out.dtOK = false // integer means promote; leave unknown
		}
		if in.rankOK {
			rank := len(in.shape)
			reduce := make([]bool, rank)
			if len(axes) == 0 {
				for i := range reduce {
					reduce[i] = true
				}
			}
			bad := false
			for _, ax := range axes {
				if ax < 0 {
					ax += rank
				}
				if ax < 0 || ax >= rank {
					c.addf(n, 0, "reduce-axis", "axis %v out of range for rank-%d input", n.Attr("axes"), rank)
					bad = true
					break
				}
				reduce[ax] = true
			}
			if !bad {
				var shape []int
				for i, d := range in.shape {
					if reduce[i] {
						if keep {
							shape = append(shape, 1)
						}
					} else {
						shape = append(shape, d)
					}
				}
				if shape == nil {
					shape = []int{}
				}
				out.shape, out.rankOK = shape, true
			}
		}
		c.set(0, out)
	case "ArgMax":
		in := c.in(n, 0)
		out := typeInfo{dt: tensor.Int, dtOK: true}
		if in.rankOK {
			axis := n.AttrInt("axis")
			rank := len(in.shape)
			if axis < 0 {
				axis += rank
			}
			if axis < 0 || axis >= rank {
				c.addf(n, 0, "reduce-axis", "axis %d out of range for rank-%d input", n.AttrInt("axis"), rank)
			} else {
				shape := append([]int(nil), in.shape[:axis]...)
				shape = append(shape, in.shape[axis+1:]...)
				out.shape, out.rankOK = shape, true
			}
		}
		c.set(0, out)
	case "Transpose":
		in := c.in(n, 0)
		perm, _ := n.Attr("perm").([]int)
		out := typeInfo{dt: in.dt, dtOK: in.dtOK}
		if in.rankOK && len(perm) > 0 {
			if len(perm) != len(in.shape) {
				c.addf(n, 0, "transpose-perm", "perm %v does not match rank-%d input", perm, len(in.shape))
			} else {
				shape := make([]int, len(perm))
				valid := true
				for i, p := range perm {
					if p < 0 || p >= len(in.shape) {
						c.addf(n, 0, "transpose-perm", "perm %v indexes outside rank-%d input", perm, len(in.shape))
						valid = false
						break
					}
					shape[i] = in.shape[p]
				}
				if valid {
					out.shape, out.rankOK = shape, true
				}
			}
		}
		c.set(0, out)
	case "Cast":
		in := c.in(n, 0)
		out := typeInfo{shape: in.shape, rankOK: in.rankOK}
		switch to := n.Attr("to").(type) {
		case tensor.DType:
			out.dt, out.dtOK = to, true
		case int:
			out.dt, out.dtOK = tensor.DType(to), true
		}
		c.set(0, out)
	case "Shape":
		in := c.in(n, 0)
		out := fact{typeInfo: typeInfo{dt: tensor.Int, dtOK: true}}
		if in.rankOK {
			out.shape, out.rankOK = []int{len(in.shape)}, true
		}
		if dimsKnown(in) {
			out.val = append([]int{}, in.shape...)
		}
		c.setFact(0, out)
	case "Size":
		out := fact{typeInfo: scalarOf(tensor.Int)}
		if total, ok := numElems(c.in(n, 0)); ok {
			out.val = []int{total}
		}
		c.setFact(0, out)
	case "Rank":
		c.set(0, scalarOf(tensor.Int))
	case "RandomUniform", "RandomNormal":
		out := typeInfo{dt: tensor.Float, dtOK: true}
		if sv, ok := n.Attr("shape").([]int); ok {
			out.shape, out.rankOK = sv, true
		}
		c.set(0, out)
	case "Reshape":
		c.set(0, c.reshape(n))
	case "Fill":
		// Fill(shape, value).
		if s, ok := c.inInts(n, 0, 1); ok {
			c.set(0, shaped(s, c.in(n, 1)))
		}
	case "BroadcastTo", "UnbroadcastTo", "SumGrad":
		// (x, shape): x's dtype in the shape the second operand names.
		// SumGrad broadcasts its gradient back to the pre-reduction shape.
		if s, ok := c.inInts(n, 1, 1); ok {
			c.set(0, shaped(s, c.in(n, 0)))
		}
	case "GatherGrad":
		// GatherGrad(ix, g, shape): g scattered into zeros of shape.
		if s, ok := c.inInts(n, 2, 1); ok {
			c.set(0, shaped(s, c.in(n, 1)))
		}
	case "SliceAxisGrad", "SliceRowsGrad", "TileGrad":
		// Zeros shaped like x (input 1) with the gradient slab filled in.
		c.set(0, c.in(n, 1))
	case "Pack":
		ins := n.InputsRef()
		if len(ins) == 0 {
			break
		}
		elem := c.in(n, 0)
		for i := 1; i < len(ins) && elem.rankOK; i++ {
			j, ok := join(elem, c.in(n, i))
			if !ok || len(j.shape) != len(elem.shape) {
				elem = typeInfo{}
				break
			}
			elem = j
		}
		if elem.rankOK {
			c.set(0, typeInfo{dt: elem.dt, dtOK: elem.dtOK, rankOK: true,
				shape: append([]int{len(ins)}, elem.shape...)})
		}
	case "Unpack":
		if in := c.in(n, 0); in.rankOK && len(in.shape) >= 1 {
			t := typeInfo{dt: in.dt, dtOK: in.dtOK, rankOK: true, shape: append([]int(nil), in.shape[1:]...)}
			for port := range c.out {
				c.set(port, t)
			}
		}
	case "Split":
		in := c.in(n, 0)
		num, axis := n.AttrInt("num"), n.AttrInt("axis")
		if in.rankOK && num > 0 && axis >= 0 && axis < len(in.shape) {
			s := append([]int(nil), in.shape...)
			if s[axis] >= 0 && s[axis]%num == 0 {
				s[axis] /= num
			} else {
				s[axis] = -1
			}
			t := typeInfo{dt: in.dt, dtOK: in.dtOK, shape: s, rankOK: true}
			for port := range c.out {
				c.set(port, t)
			}
		}
	case "Concat":
		c.set(0, c.concat(n))
	case "Gather":
		x, ix := c.in(n, 0), c.in(n, 1)
		if x.rankOK && len(x.shape) >= 1 && ix.rankOK {
			s := append(append([]int(nil), ix.shape...), x.shape[1:]...)
			c.set(0, typeInfo{dt: x.dt, dtOK: x.dtOK, shape: s, rankOK: true})
		}
	case "SliceRows":
		if x := c.in(n, 0); x.rankOK && len(x.shape) >= 1 {
			s := append([]int{n.AttrInt("size")}, x.shape[1:]...)
			c.set(0, typeInfo{dt: x.dt, dtOK: x.dtOK, shape: s, rankOK: true})
		}
	case "SliceAxis":
		// SliceAxis(x, begin, size): the extent along axis is known when
		// size is a constant.
		x, axis := c.in(n, 0), n.AttrInt("axis")
		if x.rankOK && axis < 0 {
			axis += len(x.shape)
		}
		if x.rankOK && axis >= 0 && axis < len(x.shape) {
			s := append([]int(nil), x.shape...)
			s[axis] = -1
			if v, ok := c.inInts(n, 2, 0); ok {
				s[axis] = v[0]
			}
			c.set(0, typeInfo{dt: x.dt, dtOK: x.dtOK, shape: s, rankOK: true})
		}
	case "ExpandDims":
		x, axis := c.in(n, 0), n.AttrInt("axis")
		if x.rankOK && axis < 0 {
			axis += len(x.shape) + 1
		}
		if x.rankOK && axis >= 0 && axis <= len(x.shape) {
			s := append([]int(nil), x.shape[:axis]...)
			s = append(s, 1)
			s = append(s, x.shape[axis:]...)
			c.set(0, typeInfo{dt: x.dt, dtOK: x.dtOK, shape: s, rankOK: true})
		}
	case "OneHot":
		if ix := c.in(n, 0); ix.rankOK {
			s := append(append([]int(nil), ix.shape...), n.AttrInt("depth"))
			c.set(0, typeInfo{dt: tensor.Float, dtOK: true, shape: s, rankOK: true})
		}
	case "ShapeDim":
		out := fact{typeInfo: scalarOf(tensor.Int)}
		if x := c.in(n, 0); x.rankOK {
			a := n.AttrInt("axis")
			if a < 0 {
				a += len(x.shape)
			}
			if a >= 0 && a < len(x.shape) && x.shape[a] >= 0 {
				out.val = []int{x.shape[a]}
			}
		}
		c.setFact(0, out)
	case "VarRead":
		t, ok := c.readElem("var/" + n.AttrString("var"))
		if !ok {
			return false
		}
		c.set(0, t)
	case "Assign", "AssignAdd", "AssignSub", "ApplyGradientDescent":
		// Every write is shaped like the variable and echoes its new value.
		t := c.in(n, 0)
		if name := n.AttrString("var"); name != "" {
			c.joinElem("var/"+name, t)
			t, _ = c.elem("var/" + name)
		}
		c.set(0, t)
	case "TensorArray":
		// TensorArray(size) -> (handle, flow).
		id, count := "ta/"+n.Name(), -1
		if v, ok := c.inInts(n, 0, 0); ok && v[0] > 0 {
			count = v[0]
		}
		c.tensorArray(id, count)
		c.setFact(0, fact{res: id})
		c.set(1, scalarOf(tensor.Float))
	case "TensorArrayGrad":
		// The gradient array of a forward array: same count, and elements
		// shaped like the forward ones.
		if fwd := c.inFact(n, 0).res; fwd != "" {
			id := fwd + "@grad/" + n.AttrString("source")
			c.tensorArray(id, c.count(fwd))
			if t, ok := c.elem(fwd); ok {
				c.joinElem(id, t)
			}
			c.setFact(0, fact{res: id})
		}
		c.set(1, scalarOf(tensor.Float))
	case "TensorArrayWrite":
		// TensorArrayWrite(handle, index, value, flow) -> flow.
		if id := c.inFact(n, 0).res; id != "" {
			c.tensorArray(id, -1)
			c.joinElem(id, c.in(n, 2))
		}
		c.set(0, scalarOf(tensor.Float))
	case "TensorArrayUnstack":
		// TensorArrayUnstack(handle, value, flow) -> flow.
		if id := c.inFact(n, 0).res; id != "" {
			v := c.in(n, 1)
			count := -1
			if v.rankOK && len(v.shape) >= 1 {
				count = v.shape[0]
			}
			c.tensorArray(id, count)
			switch {
			case !v.rankOK:
				c.joinElem(id, typeInfo{})
			case len(v.shape) >= 1:
				c.joinElem(id, typeInfo{dt: v.dt, dtOK: v.dtOK, rankOK: true, shape: append([]int(nil), v.shape[1:]...)})
			}
		}
		c.set(0, scalarOf(tensor.Float))
	case "TensorArrayRead", "TensorArrayStack", "StackPop":
		// (handle, ...) -> element (TensorArrayStack: all of them); StackPop
		// also returns the stack's remaining count.
		c.set(1, scalarOf(tensor.Int))
		id := c.inFact(n, 0).res
		if id == "" {
			break
		}
		elem, ok := c.readElem(id)
		if !ok {
			return false
		}
		switch {
		case op != "TensorArrayStack":
			c.set(0, elem)
		case elem.rankOK:
			c.set(0, typeInfo{dt: elem.dt, dtOK: elem.dtOK, rankOK: true, shape: append([]int{c.count(id)}, elem.shape...)})
		}
	case "TensorArraySize":
		out := fact{typeInfo: scalarOf(tensor.Int)}
		if v := c.count(c.inFact(n, 0).res); v >= 0 {
			out.val = []int{v}
		}
		c.setFact(0, out)
	case "Stack":
		c.setFact(0, fact{res: "stack/" + n.Name()})
	case "StackPush":
		// StackPush(handle, value) -> (value, count).
		v := c.in(n, 1)
		if id := c.inFact(n, 0).res; id != "" {
			c.joinElem(id, v)
		}
		c.set(0, v)
		c.set(1, scalarOf(tensor.Int))
	default:
		// Unknown to the type system: every output stays unknown, which
		// propagates as "no opinion" rather than a false conflict.
	}
	return true
}

// joinArms joins the inputs that have been reached; false when none has.
// A constant or a resource survives only where every arm carries the same
// one.
func (c *checker) joinArms(n *graph.Node) (fact, bool) {
	var acc fact
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
		t, ok := join(acc.typeInfo, f.typeInfo)
		if !ok {
			c.addf(n, i, "dtype-mismatch", "input %s is %s but earlier inputs are %s", in, f.dt, acc.dt)
			return fact{}, true
		}
		j := fact{typeInfo: t}
		if acc.val != nil && f.val != nil && slices.Equal(acc.val, f.val) {
			j.val = acc.val
		}
		if acc.res == f.res {
			j.res = acc.res
		}
		acc = j
	}
	return acc, reached
}

// shaped is like's dtype in shape s.
func shaped(s []int, like typeInfo) typeInfo {
	return typeInfo{dt: like.dt, dtOK: like.dtOK, shape: append([]int(nil), s...), rankOK: true}
}

// reshape resolves the static or constant target shape, filling a single
// -1 from the input's total size when that is known.
func (c *checker) reshape(n *graph.Node) typeInfo {
	var target []int
	if s, ok := n.Attr("shape").([]int); ok && len(n.InputsRef()) == 1 {
		target = append([]int(nil), s...)
	} else if s, ok := c.inInts(n, 1, 1); ok {
		target = append([]int(nil), s...)
	} else {
		return typeInfo{}
	}
	in := c.in(n, 0)
	wild := -1
	for i, d := range target {
		if d < 0 {
			if wild >= 0 {
				return typeInfo{} // two unknowns: unresolvable
			}
			wild = i
		}
	}
	if total, ok := numElems(in); wild >= 0 && ok {
		rest := 1
		for i, d := range target {
			if i != wild {
				rest *= d
			}
		}
		if rest > 0 && total%rest == 0 {
			target[wild] = total / rest
		}
	}
	return typeInfo{dt: in.dt, dtOK: in.dtOK, shape: target, rankOK: true}
}

// concat sums the concat axis over the input shapes.
func (c *checker) concat(n *graph.Node) typeInfo {
	ins := n.InputsRef()
	if len(ins) == 0 {
		return typeInfo{}
	}
	axis := n.AttrInt("axis")
	first := c.in(n, 0)
	if !first.rankOK || axis < 0 || axis >= len(first.shape) {
		return typeInfo{}
	}
	out := append([]int(nil), first.shape...)
	for i := 1; i < len(ins); i++ {
		t := c.in(n, i)
		if !t.rankOK || len(t.shape) != len(out) {
			return typeInfo{}
		}
		for d, v := range t.shape {
			switch {
			case d == axis && out[d] >= 0 && v >= 0:
				out[d] += v
			case d == axis || out[d] != v:
				out[d] = -1
			}
		}
	}
	return typeInfo{dt: first.dt, dtOK: first.dtOK, shape: out, rankOK: true}
}
