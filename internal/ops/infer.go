package ops

import (
	"slices"

	"repro/internal/tensor"
)

// Fact is what static inference knows about the value on one output port:
// its dtype, its shape (-1 for an unknown dimension; a nil Shape with RankOK
// false means even the rank is unknown), the constant it carries when it is
// an int scalar or vector inference can compute (a shape, a size), and the
// resource it names when it is a handle. The zero Fact is unknown.
type Fact struct {
	DType tensor.DType
	Shape []int
	Val   []int  // the constant's elements; nil = not a known constant
	Res   string // the verifier's name for the resource; "" = not a handle
	// DTypeOK and RankOK say that DType and the rank of Shape are known.
	DTypeOK, RankOK bool
}

// ScalarFact is a scalar of dtype dt.
func ScalarFact(dt tensor.DType) Fact {
	return Fact{DType: dt, DTypeOK: true, Shape: []int{}, RankOK: true}
}

// known is t's fact, with its elements as the constant when t is an int
// scalar or vector.
func known(t *tensor.Tensor) Fact {
	f := Fact{DType: t.DType(), DTypeOK: true, Shape: t.Shape(), RankOK: true}
	if t.DType() == tensor.Int && len(t.ShapeRef()) <= 1 {
		f.Val = make([]int, len(t.I))
		for i, v := range t.I {
			f.Val[i] = int(v)
		}
	}
	return f
}

// Type is f's dtype and shape alone.
func (f Fact) Type() Fact {
	return Fact{DType: f.DType, DTypeOK: f.DTypeOK, Shape: f.Shape, RankOK: f.RankOK}
}

// NumElems is f's element count; false unless every dim is known.
func (f Fact) NumElems() (int, bool) {
	if !f.RankOK {
		return 0, false
	}
	n := 1
	for _, d := range f.Shape {
		if d < 0 {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// Join merges two flows into one fact: dtypes must agree where both are
// known (false otherwise); dims degrade to -1 where they differ, and the
// rank to unknown where the ranks do; a constant or a resource survives only
// where both carry the same one.
func Join(a, b Fact) (Fact, bool) {
	out := Fact{}
	switch {
	case a.DTypeOK && b.DTypeOK:
		if a.DType != b.DType {
			return out, false
		}
		out.DType, out.DTypeOK = a.DType, true
	case a.DTypeOK:
		out.DType, out.DTypeOK = a.DType, true
	case b.DTypeOK:
		out.DType, out.DTypeOK = b.DType, true
	}
	if a.RankOK && b.RankOK && len(a.Shape) == len(b.Shape) {
		out.RankOK = true
		out.Shape = make([]int, len(a.Shape))
		for i := range a.Shape {
			if a.Shape[i] == b.Shape[i] {
				out.Shape[i] = a.Shape[i]
			} else {
				out.Shape[i] = -1
			}
		}
	}
	if a.Val != nil && b.Val != nil && slices.Equal(a.Val, b.Val) {
		out.Val = a.Val
	}
	if a.Res == b.Res {
		out.Res = a.Res
	}
	return out, true
}

// InferCtx is one node as its op's inference rule sees it. A rule reads Ins
// and the attributes, fills Out, and reports only definite conflicts through
// Node, never "unknown": an input fact may have -1 dims or an unknown rank,
// and the rule's result must then be no narrower than what it would give for
// any value those facts admit, since the verifier's fixpoint only widens.
type InferCtx struct {
	Op string
	Attrs
	Ins  []Fact // one per data input; zero = unknown
	Out  []Fact // one per output port, zero (unknown) on entry
	Node InferNode
}

// InferNode is the node under inference, as its rule reports on it.
type InferNode interface {
	// Addf records a finding about input port (-1: the whole node).
	Addf(port int, code, format string, args ...any)
	// InputName names data input i in a finding.
	InputName(i int) string
}

// InFact is what is known about data input i, constant and handle included.
func (c *InferCtx) InFact(i int) Fact {
	if i < 0 || i >= len(c.Ins) {
		return Fact{}
	}
	return c.Ins[i]
}

// In is data input i's dtype and shape.
func (c *InferCtx) In(i int) Fact { return c.InFact(i).Type() }

// InInts is data input i's constant when it is an int of the given rank (0
// for a scalar, 1 for a shape vector).
func (c *InferCtx) InInts(i, rank int) ([]int, bool) {
	f := c.InFact(i)
	if f.Val == nil || !f.RankOK || len(f.Shape) != rank {
		return nil, false
	}
	return f.Val, true
}

// numeric ops reject Bool and Str operands at runtime; catching the dtype
// statically turns a step failure into a construction-time diagnostic.
func numeric(dt tensor.DType) bool { return dt == tensor.Float || dt == tensor.Int }

// shaped is like's dtype in shape s.
func shaped(s []int, like Fact) Fact {
	return Fact{DType: like.DType, DTypeOK: like.DTypeOK, Shape: append([]int(nil), s...), RankOK: true}
}

// broadcast applies NumPy-style broadcasting when both operand shapes are
// fully known, reporting impossible combinations.
func (c *InferCtx) broadcast(a, b Fact) Fact {
	_, aok := a.NumElems()
	_, bok := b.NumElems()
	if !aok || !bok {
		return Fact{}
	}
	shape, err := tensor.BroadcastShapes(a.Shape, b.Shape)
	if err != nil {
		c.Node.Addf(1, "shape-mismatch", "operand shapes %v and %v do not broadcast", a.Shape, b.Shape)
		return Fact{}
	}
	return Fact{Shape: shape, RankOK: true}
}

// inferArith is the rule of the numeric binary ops: matching numeric
// dtypes, broadcast shapes.
func inferArith(c *InferCtx) {
	a, b := c.In(0), c.In(1)
	for i, t := range [...]Fact{a, b} {
		if t.DTypeOK && !numeric(t.DType) {
			c.Node.Addf(i, "arith-dtype", "operand %s is %s; %s requires a numeric operand", c.Node.InputName(i), t.DType, c.Op)
		}
	}
	if a.DTypeOK && b.DTypeOK && a.DType != b.DType {
		c.Node.Addf(1, "dtype-mismatch", "operands are %s and %s; %s requires matching dtypes", a.DType, b.DType, c.Op)
	}
	out := c.broadcast(a, b)
	if a.DTypeOK && numeric(a.DType) {
		out.DType, out.DTypeOK = a.DType, true
	} else if b.DTypeOK && numeric(b.DType) {
		out.DType, out.DTypeOK = b.DType, true
	}
	c.Out[0] = out
}

// inferCompare is the rule of the comparisons: matching dtypes, a bool of
// the broadcast shape.
func inferCompare(c *InferCtx) {
	a, b := c.In(0), c.In(1)
	if a.DTypeOK && b.DTypeOK && a.DType != b.DType {
		c.Node.Addf(1, "dtype-mismatch", "operands are %s and %s; %s requires matching dtypes", a.DType, b.DType, c.Op)
	}
	c.Out[0] = c.broadcast(a, b)
	c.Out[0].DType, c.Out[0].DTypeOK = tensor.Bool, true
}

// inferLogical is the rule of LogicalAnd and LogicalOr: bool operands, a
// bool of the broadcast shape.
func inferLogical(c *InferCtx) {
	a, b := c.In(0), c.In(1)
	for i, t := range [...]Fact{a, b} {
		if t.DTypeOK && t.DType != tensor.Bool {
			c.Node.Addf(i, "logical-dtype", "operand %s is %s; %s requires bool", c.Node.InputName(i), t.DType, c.Op)
		}
	}
	c.Out[0] = c.broadcast(a, b)
	c.Out[0].DType, c.Out[0].DTypeOK = tensor.Bool, true
}

// inferNumeric is the rule of the element-wise numeric unary ops: the
// input's type.
func inferNumeric(c *InferCtx) {
	in := c.In(0)
	if in.DTypeOK && !numeric(in.DType) {
		c.Node.Addf(0, "arith-dtype", "operand is %s; %s requires a numeric operand", in.DType, c.Op)
	}
	c.Out[0] = in
}

// inferToShape is the rule of ops whose output is data input 0's dtype in
// the shape the constant int vector on input 1 names (BroadcastTo,
// UnbroadcastTo, SumGrad).
func inferToShape(c *InferCtx) {
	if s, ok := c.InInts(1, 1); ok {
		c.Out[0] = shaped(s, c.In(0))
	}
}

// inferActGrad is the rule of SigmoidGrad and TanhGrad: float operands of
// equal shapes. A dim either operand knows is the output's, and two known
// dims that differ are an error.
func inferActGrad(c *InferCtx) {
	y, dy := c.In(0), c.In(1)
	for i, t := range [...]Fact{y, dy} {
		if t.DTypeOK && t.DType != tensor.Float {
			c.Node.Addf(i, "arith-dtype", "operand %s is %s; %s requires a float operand", c.Node.InputName(i), t.DType, c.Op)
		}
	}
	out := Fact{DType: tensor.Float, DTypeOK: true}
	switch {
	case !y.RankOK:
		out.Shape, out.RankOK = dy.Shape, dy.RankOK
	case !dy.RankOK:
		out.Shape, out.RankOK = y.Shape, true
	case len(y.Shape) != len(dy.Shape):
		c.Node.Addf(1, "shape-mismatch", "operand shapes %v and %v differ; %s requires equal shapes", y.Shape, dy.Shape, c.Op)
	default:
		out.Shape, out.RankOK = slices.Clone(y.Shape), true
		for i, d := range dy.Shape {
			if d >= 0 && out.Shape[i] >= 0 && d != out.Shape[i] {
				c.Node.Addf(1, "shape-mismatch", "operand shapes %v and %v differ; %s requires equal shapes", y.Shape, dy.Shape, c.Op)
				out = Fact{DType: tensor.Float, DTypeOK: true}
				break
			}
			out.Shape[i] = max(out.Shape[i], d)
		}
	}
	c.Out[0] = out
}

// inferReduce is the rule of Sum, Mean, Max and Min: the input's dtype, the
// reduced axes dropped (or kept as 1 with keep_dims).
func inferReduce(c *InferCtx) {
	in := c.In(0)
	axes := c.AttrInts("axes")
	out := Fact{DType: in.DType, DTypeOK: in.DTypeOK}
	if !in.RankOK {
		c.Out[0] = out
		return
	}
	rank := len(in.Shape)
	reduce := make([]bool, rank)
	if len(axes) == 0 {
		for i := range reduce {
			reduce[i] = true
		}
	}
	for _, ax := range axes {
		if ax < 0 {
			ax += rank
		}
		if ax < 0 || ax >= rank {
			c.Node.Addf(0, "reduce-axis", "axis %v out of range for rank-%d input", c.Attrs["axes"], rank)
			c.Out[0] = out
			return
		}
		reduce[ax] = true
	}
	out.Shape, out.RankOK = []int{}, true
	for i, d := range in.Shape {
		if !reduce[i] {
			out.Shape = append(out.Shape, d)
		} else if c.AttrBool("keep_dims") {
			out.Shape = append(out.Shape, 1)
		}
	}
	c.Out[0] = out
}

// inferLikeInput gives the output data input i's type (ZerosLike, OnesLike
// and the gradient ops that build zeros shaped like their forward input).
func inferLikeInput(i int) func(*InferCtx) {
	return func(c *InferCtx) { c.Out[0] = c.In(i) }
}
