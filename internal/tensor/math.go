package tensor

import (
	"fmt"
	"math"
)

// BroadcastShapes computes the NumPy-style broadcast shape of a and b, or an
// error if they are incompatible.
func BroadcastShapes(a, b []int) ([]int, error) { return broadcastShape(nil, a, b) }

// broadcastShape is BroadcastShapes storing its result in buf when it is
// large enough, so kernels can keep the shape on their stack.
func broadcastShape(buf, a, b []int) ([]int, error) {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := append(buf[:0], a...)
	for i, j := len(a)-1, len(b)-1; j >= 0; i, j = i-1, j-1 {
		switch da, db := a[i], b[j]; {
		case da == db || db == 1:
		case da == 1:
			out[i] = db
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", cloneShape(a), cloneShape(b))
		}
	}
	return out, nil
}

// broadcastWalker walks shape, the broadcast of the operand shapes a and b.
func broadcastWalker(buf []walkAxis, shape, a, b []int) walker {
	var abuf, bbuf [walkInline]int
	return newWalker(buf, shape, broadcastStrides(abuf[:0], a, shape), broadcastStrides(bbuf[:0], b, shape))
}

// zipBroadcast writes out = fn(a, b) elementwise, out having the broadcast
// shape of the two operand shapes.
func zipBroadcast[A, O any](out []O, a, b []A, shape, ashape, bshape []int, fn func(x, y A) O) {
	if ShapeEq(ashape, bshape) { // one run; scalars in a loop condition pay no set-up
		zipRun(out, a, b, 1, 1, fn)
		return
	}
	var wbuf [walkInline]walkAxis
	w := broadcastWalker(wbuf[:0], shape, ashape, bshape)
	for pos := 0; w.next(); pos += w.run {
		zipRun(out[pos:pos+w.run], a[w.a:], b[w.b:], w.ia, w.ib, fn)
	}
}

// elemOp selects an elementwise kernel's inner loop, once per call. The
// arithmetic the hardware does in a cycle gets a loop of its own (the binary
// ones through kernBinary), and so do Sigmoid and Tanh (through kernTransc);
// any other op whose cost is a math-library call (Exp, Pow, ...) is opFn and
// keeps the function value.
type elemOp uint8

const (
	opFn elemOp = iota
	opAdd
	opSub
	opMul
	opDiv
	opNeg
	opSquare
	opRelu
	opSigmoid
	opTanh
)

// kernBinary runs binaryRun's Add, Sub, Mul and Div: binaryGo, or on an
// amd64 CPU with AVX2 binaryAVX2, chosen at package init with the MatMul
// kernels (matmul_amd64.go).
var kernBinary = binaryGo

// typedBinary holds the binary ops with a loop of their own as functions,
// for the runs binaryGo's loops do not cover (an operand repeated along the
// run).
var typedBinary = [...]func(x, y float64) float64{
	opAdd: func(x, y float64) float64 { return x + y },
	opSub: func(x, y float64) float64 { return x - y },
	opMul: func(x, y float64) float64 { return x * y },
	opDiv: func(x, y float64) float64 { return x / y },
}

// binaryRun computes one run of a broadcasting binary op: each operand is
// contiguous (stride 1) or one repeated element (stride 0). fn is the op
// when it is opFn.
func binaryRun(op elemOp, fn func(x, y float64) float64, out, a, b []float64, ia, ib int) {
	if op == opFn {
		zipRun(out, a, b, ia, ib, fn)
		return
	}
	kernBinary(op, out, a, b, ia, ib)
}

// binaryGo is the portable kernBinary, and the reference of the others: a
// typed loop where both operands are contiguous, typedBinary's function per
// element where one is repeated.
func binaryGo(op elemOp, out, a, b []float64, ia, ib int) {
	if ia == 0 || ib == 0 {
		zipRun(out, a, b, ia, ib, typedBinary[op])
		return
	}
	a, b = a[:len(out)], b[:len(out)]
	switch op {
	case opAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case opSub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case opMul:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case opDiv:
		for i := range out {
			out[i] = a[i] / b[i]
		}
	}
}

// binaryFloat applies a broadcasting binary op to float tensors.
func binaryFloat(name string, a, b *Tensor, op elemOp, fn func(x, y float64) float64) (*Tensor, error) {
	return binaryFloatInto(name, nil, a, b, op, fn)
}

// binaryFloatInto is binaryFloat writing into dst when dst can legally hold
// the result: dst must alias a or b (the buffer-forwarding contract — the
// caller owns it exclusively), be float, and already have the broadcast
// shape. Any mismatch falls back to a pooled allocation. Aliasing is safe
// because every output element is written exactly once from the same (or
// another tensor's) index before being read again.
func binaryFloatInto(name string, dst, a, b *Tensor, op elemOp, fn func(x, y float64) float64) (*Tensor, error) {
	if a.dtype == Int && b.dtype == Int {
		// Integer fast path: operate in float space but emit ints for
		// closed operations. Callers needing true int semantics use
		// the *Int helpers below.
		// The float copies are this call's own: the result is written
		// into af when the shapes allow, and all of them go back to the
		// pool once the int result exists.
		af, _ := Cast(a, Float)
		bf, _ := Cast(b, Float)
		r, err := binaryFloatInto(name, af, af, bf, op, fn)
		Recycle(bf)
		if r != af {
			Recycle(af)
		}
		if err != nil {
			return nil, err
		}
		out, err := Cast(r, Int)
		Recycle(r)
		return out, err
	}
	if a.dtype != Float || b.dtype != Float {
		return nil, fmt.Errorf("tensor: %s requires float operands, got %v and %v", name, a.dtype, b.dtype)
	}
	result := func(shape []int) *Tensor {
		if dst != nil && (dst == a || dst == b) && ShapeEq(dst.shape, shape) {
			return dst
		}
		return Alloc(Float, shape...)
	}
	// Two same-shaped operands, or one with a single element under a shape
	// that is already the result's, are one run: no shape arithmetic.
	switch {
	case SameShape(a, b):
		out := result(a.shape)
		binaryRun(op, fn, out.F, a.F, b.F, 1, 1)
		return out, nil
	case len(b.F) == 1 && len(b.shape) <= len(a.shape):
		out := result(a.shape)
		binaryRun(op, fn, out.F, a.F, b.F, 1, 0)
		return out, nil
	case len(a.F) == 1 && len(a.shape) <= len(b.shape):
		out := result(b.shape)
		binaryRun(op, fn, out.F, a.F, b.F, 0, 1)
		return out, nil
	}
	var sbuf [walkInline]int
	shape, err := broadcastShape(sbuf[:0], a.shape, b.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %s: %w", name, err)
	}
	out := result(shape)
	var wbuf [walkInline]walkAxis
	w := broadcastWalker(wbuf[:0], shape, a.shape, b.shape)
	for pos := 0; w.next(); pos += w.run {
		binaryRun(op, fn, out.F[pos:pos+w.run], a.F[w.a:], b.F[w.b:], w.ia, w.ib)
	}
	return out, nil
}

func sigFn(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Add returns a+b with broadcasting.
func Add(a, b *Tensor) (*Tensor, error) { return binaryFloat("Add", a, b, opAdd, nil) }

// AddInto is Add writing into dst when permitted (see binaryFloatInto);
// dst may be nil or alias a or b.
func AddInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Add", dst, a, b, opAdd, nil)
}

// AddScaled returns a + scale*b — the product first, then the sum, each as
// Mul and Add compute it — in storage of its own from New: it is the update
// of a variable, whose value outlives every step, so the pool lends only the
// temporaries and has them back before the call returns.
func AddScaled(a, b *Tensor, scale float64) (*Tensor, error) {
	scaled := b
	if scale != 1 {
		var err error
		if scaled, err = Mul(b, Scalar(scale)); err != nil {
			return nil, err
		}
	}
	sum, err := Add(a, scaled)
	if scaled != b {
		Recycle(scaled)
	}
	if err != nil {
		return nil, err
	}
	out := New(sum.dtype, sum.shape...)
	copyElems(out, 0, sum, 0, sum.Size())
	Recycle(sum)
	return out, nil
}

// SubInto is Sub writing into dst when permitted.
func SubInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Sub", dst, a, b, opSub, nil)
}

// Mul returns a*b elementwise with broadcasting.
func Mul(a, b *Tensor) (*Tensor, error) { return binaryFloat("Mul", a, b, opMul, nil) }

// MulInto is Mul writing into dst when permitted.
func MulInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Mul", dst, a, b, opMul, nil)
}

// DivInto is Div writing into dst when permitted.
func DivInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Div", dst, a, b, opDiv, nil)
}

// PowInto is Pow writing into dst when permitted.
func PowInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Pow", dst, a, b, opFn, math.Pow)
}

// MaximumInto is Maximum writing into dst when permitted.
func MaximumInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Maximum", dst, a, b, opFn, math.Max)
}

// MinimumInto is Minimum writing into dst when permitted.
func MinimumInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Minimum", dst, a, b, opFn, math.Min)
}

// ModInto is Mod writing into dst when permitted.
func ModInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Mod", dst, a, b, opFn, math.Mod)
}

// kernTransc runs unaryRun's Sigmoid and Tanh: transcGo, or on an amd64
// CPU with AVX2 and FMA transcAVX2, chosen at package init with the MatMul
// kernels (matmul_amd64.go).
var kernTransc = transcGo

// transcFns holds the ops kernTransc runs as the functions they compute.
var transcFns = [...]func(float64) float64{opSigmoid: sigFn, opTanh: math.Tanh}

// transcGo is the portable kernTransc, and the reference of the others.
func transcGo(op elemOp, out, in []float64) {
	fn := transcFns[op]
	for i, v := range in[:len(out)] {
		out[i] = fn(v)
	}
}

// unaryRun computes one elementwise unary op over in.
func unaryRun(op elemOp, fn func(float64) float64, out, in []float64) {
	in = in[:len(out)]
	switch op {
	case opNeg:
		for i, v := range in {
			out[i] = -v
		}
	case opSquare:
		for i, v := range in {
			out[i] = v * v
		}
	case opRelu:
		for i, v := range in {
			if v > 0 {
				out[i] = v
			} else {
				out[i] = 0
			}
		}
	case opSigmoid, opTanh:
		kernTransc(op, out, in)
	default:
		for i, v := range in {
			out[i] = fn(v)
		}
	}
}

// unaryFloatInto is unaryFloat writing into dst when dst aliases t (the
// forwarding contract) and t is float; otherwise it allocates from the
// buffer pool.
func unaryFloatInto(name string, dst, t *Tensor, op elemOp, fn func(float64) float64) (*Tensor, error) {
	if t.dtype == Int {
		f, _ := Cast(t, Float)
		r, err := unaryFloatInto(name, f, f, op, fn) // in place: f is ours
		if err != nil {
			return nil, err
		}
		out, err := Cast(r, Int)
		Recycle(r)
		return out, err
	}
	if t.dtype != Float {
		return nil, fmt.Errorf("tensor: %s requires a float tensor, got %v", name, t.dtype)
	}
	out := dst
	if out != t || out == nil {
		out = Alloc(Float, t.shape...)
	}
	unaryRun(op, fn, out.F, t.F)
	return out, nil
}

func signFn(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// NegInto is Neg writing into dst when permitted (dst may alias t).
func NegInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Neg", dst, t, opNeg, nil) }

// AbsInto is Abs writing into dst when permitted.
func AbsInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Abs", dst, t, opFn, math.Abs) }

// ExpInto is Exp writing into dst when permitted.
func ExpInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Exp", dst, t, opFn, math.Exp) }

// LogInto is Log writing into dst when permitted.
func LogInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Log", dst, t, opFn, math.Log) }

// SqrtInto is Sqrt writing into dst when permitted.
func SqrtInto(dst, t *Tensor) (*Tensor, error) {
	return unaryFloatInto("Sqrt", dst, t, opFn, math.Sqrt)
}

// SquareInto is Square writing into dst when permitted.
func SquareInto(dst, t *Tensor) (*Tensor, error) {
	return unaryFloatInto("Square", dst, t, opSquare, nil)
}

// SigmoidInto is Sigmoid writing into dst when permitted.
func SigmoidInto(dst, t *Tensor) (*Tensor, error) {
	return unaryFloatInto("Sigmoid", dst, t, opSigmoid, nil)
}

// TanhInto is Tanh writing into dst when permitted.
func TanhInto(dst, t *Tensor) (*Tensor, error) {
	return unaryFloatInto("Tanh", dst, t, opTanh, nil)
}

// SigmoidGradInto is SigmoidGrad(y, dy) = dy·(y·(1−y)), the gradient through
// y = Sigmoid(x), writing into dst when permitted (dst may alias y or dy).
// It is the chain the gradient used to build — OnesLike, Sub, Mul, Mul — in
// one pass, with the same operations in the same order.
func SigmoidGradInto(dst, y, dy *Tensor) (*Tensor, error) {
	return activationGradInto("SigmoidGrad", dst, y, dy, opSigmoid)
}

// TanhGradInto is TanhGrad(y, dy) = dy·(1−y·y), the gradient through
// y = Tanh(x), as SigmoidGradInto is Sigmoid's.
func TanhGradInto(dst, y, dy *Tensor) (*Tensor, error) {
	return activationGradInto("TanhGrad", dst, y, dy, opTanh)
}

// activationGradInto computes op's gradient over two float operands of one
// shape, into dst when it aliases either (the forwarding contract), else into
// a pooled buffer.
func activationGradInto(name string, dst, y, dy *Tensor, op elemOp) (*Tensor, error) {
	if y.dtype != Float || dy.dtype != Float || !SameShape(y, dy) {
		return nil, fmt.Errorf("tensor: %s requires float operands of one shape, got %v and %v", name, y, dy)
	}
	out := dst
	if out == nil || out != y && out != dy {
		out = Alloc(Float, y.shape...)
	}
	o := out.F
	yf, dyf := y.F[:len(o)], dy.F[:len(o)]
	if op == opSigmoid {
		for i, v := range yf {
			o[i] = dyf[i] * (v * (1 - v))
		}
	} else {
		for i, v := range yf {
			o[i] = dyf[i] * (1 - float64(v*v)) // the conversion forbids a fused multiply-add
		}
	}
	return out, nil
}

// ReluInto is Relu writing into dst when permitted.
func ReluInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Relu", dst, t, opRelu, nil) }

// SignInto is Sign writing into dst when permitted.
func SignInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Sign", dst, t, opFn, signFn) }

// compare applies a predicate elementwise with broadcasting, yielding Bool.
func compare(name string, a, b *Tensor, fn func(x, y float64) bool) (*Tensor, error) {
	af := a
	bf := b
	var err error
	if a.dtype == Int {
		if af, err = Cast(a, Float); err != nil {
			return nil, err
		}
	}
	if b.dtype == Int {
		if bf, err = Cast(b, Float); err != nil {
			return nil, err
		}
	}
	if af.dtype != Float || bf.dtype != Float {
		return nil, fmt.Errorf("tensor: %s requires numeric operands, got %v and %v", name, a.dtype, b.dtype)
	}
	var sbuf [walkInline]int
	shape, err := broadcastShape(sbuf[:0], af.shape, bf.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %s: %w", name, err)
	}
	out := Alloc(Bool, shape...)
	zipBroadcast(out.B, af.F, bf.F, shape, af.shape, bf.shape, fn)
	if af != a {
		Recycle(af)
	}
	if bf != b {
		Recycle(bf)
	}
	return out, nil
}

// Greater returns a>b elementwise.
func Greater(a, b *Tensor) (*Tensor, error) {
	return compare("Greater", a, b, func(x, y float64) bool { return x > y })
}

// GreaterEqual returns a>=b elementwise.
func GreaterEqual(a, b *Tensor) (*Tensor, error) {
	return compare("GreaterEqual", a, b, func(x, y float64) bool { return x >= y })
}

// Less returns a<b elementwise.
func Less(a, b *Tensor) (*Tensor, error) {
	return compare("Less", a, b, func(x, y float64) bool { return x < y })
}

// LessEqual returns a<=b elementwise.
func LessEqual(a, b *Tensor) (*Tensor, error) {
	return compare("LessEqual", a, b, func(x, y float64) bool { return x <= y })
}

// EqualElems returns a==b elementwise (numeric).
func EqualElems(a, b *Tensor) (*Tensor, error) {
	return compare("Equal", a, b, func(x, y float64) bool { return x == y })
}

// NotEqual returns a!=b elementwise (numeric).
func NotEqual(a, b *Tensor) (*Tensor, error) {
	return compare("NotEqual", a, b, func(x, y float64) bool { return x != y })
}

// LogicalAnd returns a&&b elementwise over bool tensors with broadcasting.
func LogicalAnd(a, b *Tensor) (*Tensor, error) {
	return logical("LogicalAnd", a, b, func(x, y bool) bool { return x && y })
}

// LogicalOr returns a||b elementwise over bool tensors with broadcasting.
func LogicalOr(a, b *Tensor) (*Tensor, error) {
	return logical("LogicalOr", a, b, func(x, y bool) bool { return x || y })
}

func logical(name string, a, b *Tensor, fn func(x, y bool) bool) (*Tensor, error) {
	if a.dtype != Bool || b.dtype != Bool {
		return nil, fmt.Errorf("tensor: %s requires bool operands, got %v and %v", name, a.dtype, b.dtype)
	}
	var sbuf [walkInline]int
	shape, err := broadcastShape(sbuf[:0], a.shape, b.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %s: %w", name, err)
	}
	out := Alloc(Bool, shape...)
	zipBroadcast(out.B, a.B, b.B, shape, a.shape, b.shape, fn)
	return out, nil
}

// LogicalNot returns !t elementwise.
func LogicalNot(t *Tensor) (*Tensor, error) {
	if t.dtype != Bool {
		return nil, fmt.Errorf("tensor: LogicalNot requires a bool tensor, got %v", t.dtype)
	}
	out := Alloc(Bool, t.shape...)
	for i, v := range t.B {
		out.B[i] = !v
	}
	return out, nil
}

// Select returns elements of a where cond is true, else elements of b, with
// broadcasting of cond over the leading dimension (TF Where/Select
// semantics: cond is either the same shape or a vector matching dim 0).
func Select(cond, a, b *Tensor) (*Tensor, error) {
	if cond.dtype != Bool {
		return nil, fmt.Errorf("tensor: Select condition must be bool, got %v", cond.dtype)
	}
	if !SameShape(a, b) || a.dtype != b.dtype {
		return nil, fmt.Errorf("tensor: Select branches must match: %v vs %v", a, b)
	}
	out := Alloc(a.dtype, a.shape...) // every element is written below
	n := a.Size()
	pick := func(i int) bool {
		if cond.Size() == n {
			return cond.B[i]
		}
		if cond.Size() == 1 {
			return cond.B[0]
		}
		if a.Rank() > 0 && cond.Rank() == 1 && cond.Dim(0) == a.Dim(0) {
			inner := n / a.Dim(0)
			return cond.B[i/inner]
		}
		panic(fmt.Sprintf("tensor: Select cond shape %v incompatible with %v", cond.shape, a.shape))
	}
	for i := 0; i < n; i++ {
		var src *Tensor
		if pick(i) {
			src = a
		} else {
			src = b
		}
		switch a.dtype {
		case Float:
			out.F[i] = src.F[i]
		case Int:
			out.I[i] = src.I[i]
		case Bool:
			out.B[i] = src.B[i]
		case Str:
			out.S[i] = src.S[i]
		}
	}
	return out, nil
}

// AddN sums any number of same-shaped float tensors.
func AddN(ts ...*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: AddN of nothing")
	}
	if dt := ts[0].dtype; dt != Float && dt != Int {
		return nil, fmt.Errorf("tensor: AddN requires numeric tensors")
	}
	for _, t := range ts[1:] {
		if !SameShape(ts[0], t) || t.dtype != ts[0].dtype {
			return nil, fmt.Errorf("tensor: AddN shape/dtype mismatch: %v vs %v", ts[0], t)
		}
	}
	out := pooledCopy(ts[0])
	for _, t := range ts[1:] {
		switch out.dtype {
		case Float:
			for i := range out.F {
				out.F[i] += t.F[i]
			}
		case Int:
			for i := range out.I {
				out.I[i] += t.I[i]
			}
		}
	}
	return out, nil
}

// AccumulateInto adds src into dst in place (same shape/dtype float). Used
// by gradient aggregation and resource variables that own their buffer.
func AccumulateInto(dst, src *Tensor) error {
	if dst.dtype != Float || src.dtype != Float || !SameShape(dst, src) {
		return fmt.Errorf("tensor: AccumulateInto mismatch: %v vs %v", dst, src)
	}
	for i := range dst.F {
		dst.F[i] += src.F[i]
	}
	return nil
}
