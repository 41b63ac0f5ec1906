package tensor

import (
	"fmt"
	"math"
)

// BroadcastShapes computes the NumPy-style broadcast shape of a and b, or an
// error if they are incompatible.
func BroadcastShapes(a, b []int) ([]int, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", a, b)
		}
	}
	return out, nil
}

// strides returns row-major strides for shape.
func strides(shape []int) []int {
	st := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= shape[i]
	}
	return st
}

// broadcastIndexer returns a function mapping a flat index in the broadcast
// output shape to the flat index in a tensor of shape `from`.
func broadcastIndexer(from, to []int) func(int) int {
	if ShapeEq(from, to) {
		return func(i int) int { return i }
	}
	fromSt := strides(from)
	toSt := strides(to)
	offset := len(to) - len(from)
	return func(flat int) int {
		src := 0
		for i, st := range toSt {
			ix := flat / st % to[i]
			j := i - offset
			if j < 0 {
				continue
			}
			if from[j] == 1 {
				continue
			}
			src += ix * fromSt[j]
		}
		return src
	}
}

// binaryFloat applies fn elementwise with broadcasting over float tensors.
func binaryFloat(name string, a, b *Tensor, fn func(x, y float64) float64) (*Tensor, error) {
	return binaryFloatInto(name, nil, a, b, fn)
}

// binaryFloatInto is binaryFloat writing into dst when dst can legally hold
// the result: dst must alias a or b (the buffer-forwarding contract — the
// caller owns it exclusively), be float, and already have the broadcast
// shape. Any mismatch falls back to a pooled allocation. Aliasing is safe
// because every output element is written exactly once from the same (or
// another tensor's) index before being read again.
func binaryFloatInto(name string, dst, a, b *Tensor, fn func(x, y float64) float64) (*Tensor, error) {
	if a.dtype == Int && b.dtype == Int {
		// Integer fast path: operate in float space but emit ints for
		// closed operations. Callers needing true int semantics use
		// the *Int helpers below.
		// The float copies are this call's own: the result is written
		// into af when the shapes allow, and all of them go back to the
		// pool once the int result exists.
		af, _ := Cast(a, Float)
		bf, _ := Cast(b, Float)
		r, err := binaryFloatInto(name, af, af, bf, fn)
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
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %s: %w", name, err)
	}
	out := dst
	if out == nil || (out != a && out != b) || out.dtype != Float || !ShapeEq(out.shape, shape) {
		out = Alloc(Float, shape...)
	}
	n := out.Size()
	if ShapeEq(a.shape, shape) && ShapeEq(b.shape, shape) {
		for i := 0; i < n; i++ {
			out.F[i] = fn(a.F[i], b.F[i])
		}
		return out, nil
	}
	// One operand is a single element: the other then has the output's
	// elements in the output's order, and no index arithmetic is needed.
	if len(b.F) == 1 {
		y := b.F[0]
		for i, x := range a.F[:n] {
			out.F[i] = fn(x, y)
		}
		return out, nil
	}
	if len(a.F) == 1 {
		x := a.F[0]
		for i, y := range b.F[:n] {
			out.F[i] = fn(x, y)
		}
		return out, nil
	}
	ai := broadcastIndexer(a.shape, shape)
	bi := broadcastIndexer(b.shape, shape)
	for i := 0; i < n; i++ {
		out.F[i] = fn(a.F[ai(i)], b.F[bi(i)])
	}
	return out, nil
}

// Elementwise kernels, named so the *Into forwarding variants share them.
var (
	addFn  = func(x, y float64) float64 { return x + y }
	subFn  = func(x, y float64) float64 { return x - y }
	mulFn  = func(x, y float64) float64 { return x * y }
	divFn  = func(x, y float64) float64 { return x / y }
	negFn  = func(x float64) float64 { return -x }
	sqFn   = func(x float64) float64 { return x * x }
	sigFn  = func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	reluFn = func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}
)

// Add returns a+b with broadcasting.
func Add(a, b *Tensor) (*Tensor, error) { return binaryFloat("Add", a, b, addFn) }

// AddInto is Add writing into dst when permitted (see binaryFloatInto);
// dst may be nil or alias a or b.
func AddInto(dst, a, b *Tensor) (*Tensor, error) { return binaryFloatInto("Add", dst, a, b, addFn) }

// Sub returns a-b with broadcasting.
func Sub(a, b *Tensor) (*Tensor, error) { return binaryFloat("Sub", a, b, subFn) }

// SubInto is Sub writing into dst when permitted.
func SubInto(dst, a, b *Tensor) (*Tensor, error) { return binaryFloatInto("Sub", dst, a, b, subFn) }

// Mul returns a*b elementwise with broadcasting.
func Mul(a, b *Tensor) (*Tensor, error) { return binaryFloat("Mul", a, b, mulFn) }

// MulInto is Mul writing into dst when permitted.
func MulInto(dst, a, b *Tensor) (*Tensor, error) { return binaryFloatInto("Mul", dst, a, b, mulFn) }

// Div returns a/b elementwise with broadcasting.
func Div(a, b *Tensor) (*Tensor, error) { return binaryFloat("Div", a, b, divFn) }

// DivInto is Div writing into dst when permitted.
func DivInto(dst, a, b *Tensor) (*Tensor, error) { return binaryFloatInto("Div", dst, a, b, divFn) }

// Pow returns a**b elementwise with broadcasting.
func Pow(a, b *Tensor) (*Tensor, error) { return binaryFloat("Pow", a, b, math.Pow) }

// PowInto is Pow writing into dst when permitted.
func PowInto(dst, a, b *Tensor) (*Tensor, error) { return binaryFloatInto("Pow", dst, a, b, math.Pow) }

// Maximum returns elementwise max with broadcasting.
func Maximum(a, b *Tensor) (*Tensor, error) { return binaryFloat("Maximum", a, b, math.Max) }

// MaximumInto is Maximum writing into dst when permitted.
func MaximumInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Maximum", dst, a, b, math.Max)
}

// Minimum returns elementwise min with broadcasting.
func Minimum(a, b *Tensor) (*Tensor, error) { return binaryFloat("Minimum", a, b, math.Min) }

// MinimumInto is Minimum writing into dst when permitted.
func MinimumInto(dst, a, b *Tensor) (*Tensor, error) {
	return binaryFloatInto("Minimum", dst, a, b, math.Min)
}

// Mod returns elementwise floating-point remainder with broadcasting.
func Mod(a, b *Tensor) (*Tensor, error) { return binaryFloat("Mod", a, b, math.Mod) }

// ModInto is Mod writing into dst when permitted.
func ModInto(dst, a, b *Tensor) (*Tensor, error) { return binaryFloatInto("Mod", dst, a, b, math.Mod) }

// AddInt adds int tensors with broadcasting, staying in int64.
func AddInt(a, b *Tensor) (*Tensor, error) {
	if a.dtype != Int || b.dtype != Int {
		return nil, fmt.Errorf("tensor: AddInt requires int operands")
	}
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, err
	}
	out := Alloc(Int, shape...)
	ai := broadcastIndexer(a.shape, shape)
	bi := broadcastIndexer(b.shape, shape)
	for i := range out.I {
		out.I[i] = a.I[ai(i)] + b.I[bi(i)]
	}
	return out, nil
}

// unaryFloat applies fn elementwise to a float tensor.
func unaryFloat(name string, t *Tensor, fn func(float64) float64) (*Tensor, error) {
	return unaryFloatInto(name, nil, t, fn)
}

// unaryFloatInto is unaryFloat writing into dst when dst aliases t (the
// forwarding contract) and t is float; otherwise it allocates from the
// buffer pool.
func unaryFloatInto(name string, dst, t *Tensor, fn func(float64) float64) (*Tensor, error) {
	if t.dtype == Int {
		f, _ := Cast(t, Float)
		r, err := unaryFloatInto(name, f, f, fn) // in place: f is ours
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
	for i, v := range t.F {
		out.F[i] = fn(v)
	}
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

// Neg returns -t.
func Neg(t *Tensor) (*Tensor, error) { return unaryFloat("Neg", t, negFn) }

// NegInto is Neg writing into dst when permitted (dst may alias t).
func NegInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Neg", dst, t, negFn) }

// Abs returns |t|.
func Abs(t *Tensor) (*Tensor, error) { return unaryFloat("Abs", t, math.Abs) }

// AbsInto is Abs writing into dst when permitted.
func AbsInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Abs", dst, t, math.Abs) }

// Exp returns e**t elementwise.
func Exp(t *Tensor) (*Tensor, error) { return unaryFloat("Exp", t, math.Exp) }

// ExpInto is Exp writing into dst when permitted.
func ExpInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Exp", dst, t, math.Exp) }

// Log returns ln(t) elementwise.
func Log(t *Tensor) (*Tensor, error) { return unaryFloat("Log", t, math.Log) }

// LogInto is Log writing into dst when permitted.
func LogInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Log", dst, t, math.Log) }

// Sqrt returns sqrt(t) elementwise.
func Sqrt(t *Tensor) (*Tensor, error) { return unaryFloat("Sqrt", t, math.Sqrt) }

// SqrtInto is Sqrt writing into dst when permitted.
func SqrtInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Sqrt", dst, t, math.Sqrt) }

// Square returns t*t elementwise.
func Square(t *Tensor) (*Tensor, error) { return unaryFloat("Square", t, sqFn) }

// SquareInto is Square writing into dst when permitted.
func SquareInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Square", dst, t, sqFn) }

// Sigmoid returns 1/(1+e^-t) elementwise.
func Sigmoid(t *Tensor) (*Tensor, error) { return unaryFloat("Sigmoid", t, sigFn) }

// SigmoidInto is Sigmoid writing into dst when permitted.
func SigmoidInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Sigmoid", dst, t, sigFn) }

// Tanh returns tanh(t) elementwise.
func Tanh(t *Tensor) (*Tensor, error) { return unaryFloat("Tanh", t, math.Tanh) }

// TanhInto is Tanh writing into dst when permitted.
func TanhInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Tanh", dst, t, math.Tanh) }

// Relu returns max(t, 0) elementwise.
func Relu(t *Tensor) (*Tensor, error) { return unaryFloat("Relu", t, reluFn) }

// ReluInto is Relu writing into dst when permitted.
func ReluInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Relu", dst, t, reluFn) }

// Sign returns -1, 0, or 1 elementwise.
func Sign(t *Tensor) (*Tensor, error) { return unaryFloat("Sign", t, signFn) }

// SignInto is Sign writing into dst when permitted.
func SignInto(dst, t *Tensor) (*Tensor, error) { return unaryFloatInto("Sign", dst, t, signFn) }

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
	shape, err := BroadcastShapes(af.shape, bf.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %s: %w", name, err)
	}
	out := Alloc(Bool, shape...)
	ai := broadcastIndexer(af.shape, shape)
	bi := broadcastIndexer(bf.shape, shape)
	for i := range out.B {
		out.B[i] = fn(af.F[ai(i)], bf.F[bi(i)])
	}
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
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %s: %w", name, err)
	}
	out := Alloc(Bool, shape...)
	ai := broadcastIndexer(a.shape, shape)
	bi := broadcastIndexer(b.shape, shape)
	for i := range out.B {
		out.B[i] = fn(a.B[ai(i)], b.B[bi(i)])
	}
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
