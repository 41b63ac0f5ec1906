// Package tensor implements dense multi-dimensional arrays and the math
// kernels used by the dataflow runtime. It is the repository's equivalent of
// TensorFlow's Tensor/Eigen substrate: row-major dense storage, a small set
// of element types, shape algebra with NumPy-style broadcasting, linear
// algebra, reductions, and array manipulation.
//
// All operations return new tensors; tensors are treated as immutable by the
// runtime once produced (mutation helpers exist for construction and for
// in-place accumulation inside resources that own their buffers, and the
// *Into variants write over an operand the caller owns exclusively).
//
// # How the kernels address memory
//
// No kernel copies what it can read in place, and none computes an index per
// element. Kernels that pair elements of differently laid-out tensors — the
// broadcasting binaries, comparisons and logicals, BroadcastTo, Transpose,
// the reductions, ArgMax — describe each operand by one stride per axis of
// the shape they walk (0 where the operand is broadcast, a permuted stride
// for a transpose) and hand that to the one strided walker (walk.go), which
// drops size-1 axes, merges axes the operands cross contiguously, and visits
// the shape in flat order as contiguous innermost runs. The kernel is a typed
// loop over a run: Add, Sub, Mul, Div, Neg, Square and Relu have loops of
// their own, selected once per call, and so do Sigmoid and Tanh (on an amd64
// CPU with AVX2 and FMA, math.Exp's own algorithm four lanes at a time,
// transc_amd64.s); other ops whose cost is a math-library call keep a
// function value; a run that is contiguous on both sides of a
// Transpose is a copy, and the plain matrix transpose is tiled. Same-shaped
// operands and single-element operands skip the shape arithmetic altogether.
//
// MatMul reads either operand transposed over its last two axes (MatMulT)
// through three kernels — a·b, a·bᵀ, aᵀ·b; aᵀ·bᵀ transposes b into scratch —
// so a gradient or a user's x.Transpose().MatMul(y) costs no transpose.
//
// # Bit-identity
//
// Every kernel here replaced a slower one under one rule: the same arithmetic
// on the same operands in the same order, so that only the address
// computation — or the width of the instruction — changed and every result
// has the same bits as before. A reduction folds its input in the input's flat
// order; UnbroadcastTo sums one axis per pass, outermost first; a MatMul
// output element is its products added in increasing inner index starting
// from +0. reference_test.go keeps the old kernels and differential_test.go
// compares bits, not tolerances.
//
// MatMul has two sets of kernels and the rule is what lets it. matmulNN and
// matmulNT in linalg.go are Go loops at the two-scalar-flops-a-cycle limit of
// compiled code. On an amd64 CPU with AVX2, package init swaps in the
// assembly of matmul_amd64.s (stubs and row blocking in matmul_amd64.go),
// about three times faster and bit-identical by construction rather than by
// tolerance: an output element is an independent left-to-right chain over the
// inner index, so four neighbouring output columns ride the four lanes of a
// YMM register and each lane executes exactly the scalar chain — one multiply
// (VMULPD), then one add of the product to the running sum (VADDPD), never a
// fused multiply-add, which rounds once where the scalar code rounds twice.
// Blocking changes which elements are computed together, never the order
// within one: sums stay in registers over the whole inner dimension, a tile
// that would overrun the matrix is moved back inside it and recomputes what it
// overlaps, a·bᵀ transposes 4×4 blocks of b in registers to put four columns'
// operands in one register. The Go kernels stay as what runs on every other
// CPU and GOARCH, as the loop for products too small for a tile, and as the
// reference the assembly is compared against (TestDifferentialMatMul runs
// every case on both). Nothing selects between them but the CPU and the size
// of the product: there is no flag and no build tag, and the gauge
// tensor_matmul_avx2_count says which set a process runs.
//
// The rule holds wherever the compiler fuses no multiply-add in the Go kernels
// (the default amd64 build; arm64 fuses, and the tests relax MatMul to 1e-12
// off amd64). Two things it does not promise. The old matmul skipped zero
// elements of its left operand, which turned 0·Inf and 0·NaN into 0 and hid
// a poisoned weight; MatMul now propagates the NaN. And where two NaNs
// meet in one multiply or add the hardware returns its first source, an
// operand order no compiler promises, so which NaN's payload survives is
// unspecified; that a result is NaN is not.
package tensor

import (
	"fmt"
	"strings"
)

// DType enumerates the element types supported by the runtime.
type DType int

// Supported element types.
const (
	Float DType = iota // float64
	Int                // int64
	Bool               // bool
	Str                // string
)

// String returns the canonical lowercase name of the dtype.
func (d DType) String() string {
	switch d {
	case Float:
		return "float"
	case Int:
		return "int"
	case Bool:
		return "bool"
	case Str:
		return "string"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Tensor is a dense, row-major multi-dimensional array. Exactly one of the
// backing slices is non-nil, selected by dtype. The zero value is an invalid
// tensor; use the constructors.
type Tensor struct {
	dtype DType
	shape []int

	F []float64
	I []int64
	B []bool
	S []string
}

// New returns a zero-filled tensor of the given dtype and shape.
func New(dtype DType, shape ...int) *Tensor {
	n := NumElements(shape)
	t := &Tensor{dtype: dtype, shape: cloneShape(shape)}
	switch dtype {
	case Float:
		t.F = make([]float64, n)
	case Int:
		t.I = make([]int64, n)
	case Bool:
		t.B = make([]bool, n)
	case Str:
		t.S = make([]string, n)
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %v", dtype))
	}
	return t
}

// NumElements returns the product of dims; the empty shape has one element
// (a scalar). It panics on negative dimensions.
func NumElements(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The message gets a copy: formatting shape itself would make
			// every caller's shape — Alloc's variadic one included — escape.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, cloneShape(shape)))
		}
		n *= d
	}
	return n
}

// CheckShape reports whether shape is a well-formed dense shape holding
// exactly elems elements: no negative dimension, and an overflow-checked
// element product equal to elems. Decoders of untrusted input (wire
// envelopes, checkpoint files) must validate with it before calling the
// panicking From* constructors.
func CheckShape(shape []int, elems int) error {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		if d > 0 && n > (1<<62)/d {
			return fmt.Errorf("tensor: element count of shape %v overflows", shape)
		}
		n *= d
	}
	if n != elems {
		return fmt.Errorf("tensor: shape %v holds %d elements, data has %d", shape, n, elems)
	}
	return nil
}

// Decoded rebuilds a tensor from the fields a decoder of input from outside
// the process (a wire envelope, a checkpoint file) read: dtype picks the
// payload among f, i, b and s, and dtype and shape are validated against it
// before the panicking From* constructors run, so malformed input is an
// error, never a panic. The payload is copied.
func Decoded(dtype int, shape []int, f []float64, i []int64, b []bool, s []string) (*Tensor, error) {
	var elems int
	switch DType(dtype) {
	case Float:
		elems = len(f)
	case Int:
		elems = len(i)
	case Bool:
		elems = len(b)
	case Str:
		elems = len(s)
	default:
		return nil, fmt.Errorf("tensor: unknown dtype %d", dtype)
	}
	if err := CheckShape(shape, elems); err != nil {
		return nil, err
	}
	switch DType(dtype) {
	case Int:
		return FromInts(i, shape...), nil
	case Bool:
		return FromBools(b, shape...), nil
	case Str:
		return FromStrings(s, shape...), nil
	default:
		return FromFloats(f, shape...), nil
	}
}

func cloneShape(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// FromFloats wraps data (copied) in a float tensor of the given shape.
func FromFloats(data []float64, shape ...int) *Tensor {
	if len(data) != NumElements(shape) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), shape))
	}
	t := &Tensor{dtype: Float, shape: cloneShape(shape), F: make([]float64, len(data))}
	copy(t.F, data)
	return t
}

// FromInts wraps data (copied) in an int tensor of the given shape.
func FromInts(data []int64, shape ...int) *Tensor {
	if len(data) != NumElements(shape) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), shape))
	}
	t := &Tensor{dtype: Int, shape: cloneShape(shape), I: make([]int64, len(data))}
	copy(t.I, data)
	return t
}

// FromBools wraps data (copied) in a bool tensor of the given shape.
func FromBools(data []bool, shape ...int) *Tensor {
	if len(data) != NumElements(shape) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), shape))
	}
	t := &Tensor{dtype: Bool, shape: cloneShape(shape), B: make([]bool, len(data))}
	copy(t.B, data)
	return t
}

// FromStrings wraps data (copied) in a string tensor of the given shape.
func FromStrings(data []string, shape ...int) *Tensor {
	if len(data) != NumElements(shape) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), shape))
	}
	t := &Tensor{dtype: Str, shape: cloneShape(shape), S: make([]string, len(data))}
	copy(t.S, data)
	return t
}

// Scalar returns a rank-0 float tensor.
func Scalar(v float64) *Tensor { return FromFloats([]float64{v}) }

// ScalarInt returns a rank-0 int tensor.
func ScalarInt(v int64) *Tensor { return FromInts([]int64{v}) }

// ScalarBool returns a rank-0 bool tensor.
func ScalarBool(v bool) *Tensor { return FromBools([]bool{v}) }

// Zeros returns a float tensor of zeros.
func Zeros(shape ...int) *Tensor { return New(Float, shape...) }

// Full returns a float tensor filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(Float, shape...)
	for i := range t.F {
		t.F[i] = v
	}
	return t
}

// ZerosLike returns a zero tensor with t's dtype and shape. Bool tensors get
// all-false; string tensors get empty strings.
func ZerosLike(t *Tensor) *Tensor { return New(t.dtype, t.shape...) }

// OnesLike returns a one-filled tensor with t's dtype and shape (true for
// bool). Strings are unsupported and panic.
func OnesLike(t *Tensor) *Tensor {
	out := Alloc(t.dtype, t.shape...)
	switch t.dtype {
	case Float:
		for i := range out.F {
			out.F[i] = 1
		}
	case Int:
		for i := range out.I {
			out.I[i] = 1
		}
	case Bool:
		for i := range out.B {
			out.B[i] = true
		}
	default:
		panic("tensor: OnesLike on string tensor")
	}
	return out
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Tensor {
	t := Zeros(n, n)
	for i := 0; i < n; i++ {
		t.F[i*n+i] = 1
	}
	return t
}

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Shape returns the dimensions (not aliased; safe to modify).
func (t *Tensor) Shape() []int { return cloneShape(t.shape) }

// ShapeRef returns the dimensions without copying; callers must not modify.
func (t *Tensor) ShapeRef() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the number of elements.
func (t *Tensor) Size() int { return NumElements(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumBytes returns the (approximate, for strings) storage footprint in
// bytes, used by the device memory accounting.
func (t *Tensor) NumBytes() int64 {
	n := int64(t.Size())
	switch t.dtype {
	case Float, Int:
		return n * 8
	case Bool:
		return n
	case Str:
		var b int64
		for _, s := range t.S {
			b += int64(len(s)) + 16
		}
		return b
	}
	return 0
}

// pooledCopy is Clone with pool-backed storage, for results that kernels
// hand to the executor as exclusively owned (and so recyclable) outputs.
func pooledCopy(t *Tensor) *Tensor {
	out := Alloc(t.dtype, t.shape...)
	copyElems(out, 0, t, 0, t.Size())
	return out
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{dtype: t.dtype, shape: cloneShape(t.shape)}
	switch t.dtype {
	case Float:
		out.F = append([]float64(nil), t.F...)
	case Int:
		out.I = append([]int64(nil), t.I...)
	case Bool:
		out.B = append([]bool(nil), t.B...)
	case Str:
		out.S = append([]string(nil), t.S...)
	}
	return out
}

// Reshape returns a copy of t (pool-backed, like every kernel result) with a
// new shape of equal element count. A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) { return ReshapeInto(nil, t, shape) }

// ReshapeInto is Reshape re-shaping t in place when dst is t (the
// buffer-forwarding contract: the caller owns t exclusively); otherwise the
// result is a pooled copy.
func ReshapeInto(dst, t *Tensor, shape []int) (*Tensor, error) {
	infer, known := -1, 1
	for i, d := range shape {
		switch {
		case d >= 0:
			known *= d
		case d == -1 && infer < 0:
			infer = i
		case d == -1:
			return nil, fmt.Errorf("tensor: multiple -1 dims in reshape %v", cloneShape(shape))
		default:
			return nil, fmt.Errorf("tensor: negative dimension %d in reshape %v", d, cloneShape(shape))
		}
	}
	size := t.Size()
	switch {
	case infer >= 0 && (known == 0 || size%known != 0):
		return nil, fmt.Errorf("tensor: cannot infer dim for reshape of %v to %v", t.shape, cloneShape(shape))
	case infer < 0 && known != size:
		return nil, fmt.Errorf("tensor: reshape %v -> %v changes element count", t.shape, cloneShape(shape))
	}
	out := dst
	if out != t || out == nil {
		out = Alloc(t.dtype, t.shape...)
		copyElems(out, 0, t, 0, size)
	}
	out.shape = append(out.shape[:0], shape...)
	if infer >= 0 {
		out.shape[infer] = size / known
	}
	return out, nil
}

// ScalarValue returns the single float value of a size-1 tensor.
func (t *Tensor) ScalarValue() float64 {
	if t.Size() != 1 || t.dtype != Float {
		panic(fmt.Sprintf("tensor: ScalarValue on %v%v", t.dtype, t.shape))
	}
	return t.F[0]
}

// ScalarIntValue returns the single int value of a size-1 tensor (casting
// from float if needed).
func (t *Tensor) ScalarIntValue() int64 {
	if t.Size() != 1 {
		panic(fmt.Sprintf("tensor: ScalarIntValue on shape %v", t.shape))
	}
	switch t.dtype {
	case Int:
		return t.I[0]
	case Float:
		return int64(t.F[0])
	}
	panic(fmt.Sprintf("tensor: ScalarIntValue on dtype %v", t.dtype))
}

// ScalarBoolValue returns the single bool value of a size-1 tensor.
func (t *Tensor) ScalarBoolValue() bool {
	if t.Size() != 1 || t.dtype != Bool {
		panic(fmt.Sprintf("tensor: ScalarBoolValue on %v%v", t.dtype, t.shape))
	}
	return t.B[0]
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// ShapeEq reports whether two shape slices are equal.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders a compact, bounded description of the tensor.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v%v", t.dtype, t.shape)
	const maxElems = 16
	n := t.Size()
	show := n
	if show > maxElems {
		show = maxElems
	}
	sb.WriteString("[")
	for i := 0; i < show; i++ {
		if i > 0 {
			sb.WriteString(" ")
		}
		switch t.dtype {
		case Float:
			fmt.Fprintf(&sb, "%.4g", t.F[i])
		case Int:
			fmt.Fprintf(&sb, "%d", t.I[i])
		case Bool:
			fmt.Fprintf(&sb, "%t", t.B[i])
		case Str:
			fmt.Fprintf(&sb, "%q", t.S[i])
		}
	}
	if n > show {
		fmt.Fprintf(&sb, " ... (%d more)", n-show)
	}
	sb.WriteString("]")
	return sb.String()
}

// Cast converts t to the given dtype. Bool↔numeric uses 0/1; Str casts are
// unsupported except Str→Str. The result's storage comes from the buffer
// pool (every element is written).
func Cast(t *Tensor, to DType) (*Tensor, error) {
	if t.dtype == to {
		return pooledCopy(t), nil
	}
	n := t.Size()
	if n > 0 && (t.dtype == Str || to == Str) {
		return nil, fmt.Errorf("tensor: cannot cast %v tensor to %v", t.dtype, to)
	}
	out := Alloc(to, t.shape...)
	for i := 0; i < n; i++ {
		var f float64
		switch t.dtype {
		case Float:
			f = t.F[i]
		case Int:
			f = float64(t.I[i])
		case Bool:
			if t.B[i] {
				f = 1
			}
		}
		switch to {
		case Float:
			out.F[i] = f
		case Int:
			out.I[i] = int64(f)
		case Bool:
			out.B[i] = f != 0
		}
	}
	return out, nil
}
