// Dtype inference and shape propagation. Types flow forward along data
// edges in topological order; NextIteration back edges contribute nothing
// (their producer may come later in the order), so loop-carried values
// simply stay partially known — the analysis is conservative and only
// reports definite conflicts, never "unknown".
//
// A shape is []int with -1 for an unknown dimension; a nil shape with
// rankOK=false means even the rank is unknown.
package verify

import (
	"fmt"

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

func dimsKnown(t typeInfo) bool {
	if !t.rankOK {
		return false
	}
	for _, d := range t.shape {
		if d < 0 {
			return false
		}
	}
	return true
}

// knownNonUnit reports a shape that is fully known and provably not a
// single element. The executor accepts any one-element tensor wherever a
// "scalar" predicate is required (Switch, LoopCond), so shape [1] must
// pass; only a definite multi-element shape is an error.
func knownNonUnit(t typeInfo) bool {
	if !dimsKnown(t) {
		return false
	}
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n != 1
}

// numeric ops reject Bool and Str operands at runtime; catching the dtype
// here turns a step failure into a construction-time diagnostic.
func numericOK(dt tensor.DType) bool { return dt == tensor.Float || dt == tensor.Int }

var binaryArith = map[string]bool{
	"Add": true, "Sub": true, "Mul": true, "Div": true, "Pow": true,
	"Maximum": true, "Minimum": true, "Mod": true,
}

var comparisons = map[string]bool{
	"Greater": true, "GreaterEqual": true, "Less": true, "LessEqual": true,
	"Equal": true, "NotEqual": true,
}

var unaryArith = map[string]bool{
	"Neg": true, "Abs": true, "Exp": true, "Log": true, "Sqrt": true,
	"Square": true, "Sigmoid": true, "Tanh": true, "Relu": true, "Sign": true,
	"Softmax": true, "LogSoftmax": true,
}

// inferTypes walks the topological order propagating dtypes and shapes and
// recording port-typing diagnostics (Switch/LoopCond predicates, arithmetic
// operand mismatches, MatMul inner dimensions, reduction axes).
func (c *checker) inferTypes() {
	c.types = make(map[graph.Output]typeInfo, len(c.order))
	for _, n := range c.order {
		c.inferNode(n)
	}
}

// in returns what is known about data input i (zero value = unknown).
func (c *checker) in(n *graph.Node, i int) typeInfo {
	ins := n.InputsRef()
	if i < 0 || i >= len(ins) {
		return typeInfo{}
	}
	return c.types[ins[i]]
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

func (c *checker) set(n *graph.Node, port int, t typeInfo) {
	c.types[graph.Output{Node: n, Index: port}] = t
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

func (c *checker) inferNode(n *graph.Node) {
	op := n.Op()
	switch {
	case op == "Const":
		if t, ok := n.Attr("value").(*tensor.Tensor); ok && t != nil {
			c.set(n, 0, known(t))
		} else {
			c.addf(n, -1, "const-no-value", "Const has no tensor value attribute")
		}
	case op == "Placeholder":
		ti := typeInfo{}
		if dv, ok := n.Attr("dtype").(int); ok {
			ti.dt, ti.dtOK = tensor.DType(dv), true
		}
		if sv, ok := n.Attr("shape").([]int); ok {
			ti.shape, ti.rankOK = sv, true
		}
		c.set(n, 0, ti)
	case op == "Identity" || op == "StopGradient" || op == "Enter" || op == "Exit" || op == "NextIteration":
		c.set(n, 0, c.in(n, 0))
	case op == "Merge" || op == "AddN":
		ins := n.InputsRef()
		if len(ins) == 0 {
			return
		}
		acc := c.types[ins[0]]
		for i := 1; i < len(ins); i++ {
			next := c.types[ins[i]]
			j, ok := join(acc, next)
			if !ok {
				c.addf(n, i, "dtype-mismatch", "input %s is %s but earlier inputs are %s",
					ins[i], next.dt, acc.dt)
				return
			}
			acc = j
		}
		c.set(n, 0, acc)
	case op == "Switch":
		data, pred := c.in(n, 0), c.in(n, 1)
		if pred.dtOK && pred.dt != tensor.Bool {
			c.addf(n, 1, "switch-pred-dtype", "predicate %s is %s; Switch requires a bool", inName(n, 1), pred.dt)
		}
		if knownNonUnit(pred) {
			c.addf(n, 1, "switch-pred-shape", "predicate %s has shape %v; Switch requires a single-element bool", inName(n, 1), pred.shape)
		}
		c.set(n, 0, data)
		c.set(n, 1, data)
	case op == "LoopCond":
		in := c.in(n, 0)
		if in.dtOK && in.dt != tensor.Bool {
			c.addf(n, 0, "loopcond-dtype", "input is %s; LoopCond requires a bool", in.dt)
		}
		if knownNonUnit(in) {
			c.addf(n, 0, "loopcond-shape", "input has shape %v; LoopCond requires a single-element bool", in.shape)
		}
		c.set(n, 0, scalarOf(tensor.Bool))
	case binaryArith[op]:
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
		c.set(n, 0, out)
	case comparisons[op]:
		a, b := c.in(n, 0), c.in(n, 1)
		if a.dtOK && b.dtOK && a.dt != b.dt {
			c.addf(n, 1, "dtype-mismatch", "operands are %s and %s; %s requires matching dtypes", a.dt, b.dt, op)
		}
		out := c.broadcastResult(n, a, b)
		out.dt, out.dtOK = tensor.Bool, true
		c.set(n, 0, out)
	case op == "LogicalAnd" || op == "LogicalOr":
		a, b := c.in(n, 0), c.in(n, 1)
		for i, t := range []typeInfo{a, b} {
			if t.dtOK && t.dt != tensor.Bool {
				c.addf(n, i, "logical-dtype", "operand %s is %s; %s requires bool", inName(n, i), t.dt, op)
			}
		}
		out := c.broadcastResult(n, a, b)
		out.dt, out.dtOK = tensor.Bool, true
		c.set(n, 0, out)
	case op == "LogicalNot":
		in := c.in(n, 0)
		if in.dtOK && in.dt != tensor.Bool {
			c.addf(n, 0, "logical-dtype", "operand is %s; LogicalNot requires bool", in.dt)
		}
		in.dt, in.dtOK = tensor.Bool, true
		c.set(n, 0, in)
	case unaryArith[op]:
		in := c.in(n, 0)
		if in.dtOK && !numericOK(in.dt) {
			c.addf(n, 0, "arith-dtype", "operand is %s; %s requires a numeric operand", in.dt, op)
		}
		c.set(n, 0, in)
	case op == "ZerosLike" || op == "OnesLike":
		c.set(n, 0, c.in(n, 0))
	case op == "MatMul":
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
		c.set(n, 0, out)
	case op == "Select":
		pred, x, y := c.in(n, 0), c.in(n, 1), c.in(n, 2)
		if pred.dtOK && pred.dt != tensor.Bool {
			c.addf(n, 0, "select-pred-dtype", "condition is %s; Select requires bool", pred.dt)
		}
		out, ok := join(x, y)
		if !ok {
			c.addf(n, 2, "dtype-mismatch", "branches are %s and %s; Select requires matching dtypes", x.dt, y.dt)
			out = typeInfo{}
		}
		c.set(n, 0, out)
	case op == "Sum" || op == "Mean" || op == "Max" || op == "Min":
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
		c.set(n, 0, out)
	case op == "ArgMax":
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
		c.set(n, 0, out)
	case op == "Transpose":
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
		c.set(n, 0, out)
	case op == "Cast":
		in := c.in(n, 0)
		out := typeInfo{shape: in.shape, rankOK: in.rankOK}
		switch to := n.Attr("to").(type) {
		case tensor.DType:
			out.dt, out.dtOK = to, true
		case int:
			out.dt, out.dtOK = tensor.DType(to), true
		}
		c.set(n, 0, out)
	case op == "Shape":
		in := c.in(n, 0)
		out := typeInfo{dt: tensor.Int, dtOK: true}
		if in.rankOK {
			out.shape, out.rankOK = []int{len(in.shape)}, true
		}
		c.set(n, 0, out)
	case op == "Size" || op == "Rank":
		c.set(n, 0, scalarOf(tensor.Int))
	case op == "RandomUniform" || op == "RandomNormal":
		out := typeInfo{dt: tensor.Float, dtOK: true}
		if sv, ok := n.Attr("shape").([]int); ok {
			out.shape, out.rankOK = sv, true
		}
		c.set(n, 0, out)
	default:
		// Unknown to the type system: every output stays unknown, which
		// propagates as "no opinion" rather than a false conflict.
	}
}

// typeString renders a typeInfo for diagnostics/tests.
func (t typeInfo) String() string {
	dt := "?"
	if t.dtOK {
		dt = t.dt.String()
	}
	if !t.rankOK {
		return dt + "[?]"
	}
	return fmt.Sprintf("%s%v", dt, t.shape)
}
