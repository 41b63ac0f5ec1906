package tensor

// Differential suite: every kernel rebuilt on the strided walker or given a
// typed loop is compared with the kernel it replaced (reference_test.go) on
// seeded random cases — ranks 0–4, extents 0 and 1 included, lengths that
// are multiples of no unroll width — bit for bit. A tolerance would hide the
// one thing the rewrite promises: same arithmetic, same operands, same
// order; only the address computation changed. MatMul, the binary
// arithmetic and Sigmoid/Tanh have two sets of kernels under the same
// promise, and every case of theirs runs on both.
//
// The bits are the same wherever the compiler fuses no multiply-add, which
// is the default amd64 build (GOAMD64=v1). Only MatMul has a multiply feeding
// an add, so only its comparison relaxes — to 1e-12 relative — elsewhere.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// bitExact reports whether MatMul results are expected to match the
// reference bit for bit on this build.
var bitExact = runtime.GOARCH == "amd64"

// sameBits fails t unless got and want agree in dtype, shape and the exact
// bits of every element.
func sameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if got.dtype != want.dtype || !ShapeEq(got.shape, want.shape) {
		t.Fatalf("%s: got %v%v, want %v%v", what, got.dtype, got.shape, want.dtype, want.shape)
	}
	for i := range want.F {
		if math.Float64bits(got.F[i]) != math.Float64bits(want.F[i]) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i,
				got.F[i], math.Float64bits(got.F[i]), want.F[i], math.Float64bits(want.F[i]))
		}
	}
	if !equal(got, want) && want.dtype != Float {
		t.Fatalf("%s: got %v, reference %v", what, got, want)
	}
}

// sameProduct is sameBits for MatMul results: exact where bitExact, 1e-12
// relative otherwise. The NaN rule: NaN-ness must agree everywhere, and a
// NaN's payload bits too, except at the elements marked in twoNaNs — those
// where two NaNs met in one instruction, both factors of a product or a NaN
// sum and a NaN product. There x86 returns its first source, and which
// operand that is the compiler decides loop by loop (the Go kernels and the
// reference already differ); no kernel promises it.
func sameProduct(t *testing.T, what string, got, want *Tensor, twoNaNs []bool) {
	t.Helper()
	if !ShapeEq(got.shape, want.shape) {
		t.Fatalf("%s: got shape %v, want %v", what, got.shape, want.shape)
	}
	for i, w := range want.F {
		g := got.F[i]
		ok := math.Float64bits(g) == math.Float64bits(w)
		switch {
		case math.IsNaN(g) || math.IsNaN(w):
			ok = ok || math.IsNaN(g) && math.IsNaN(w) && (!bitExact || twoNaNs[i])
		case !bitExact:
			ok = g == w || math.Abs(g-w) <= 1e-12*math.Max(1, math.Abs(w))
		}
		if !ok {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// onEachPath runs f with MatMulT, the binary arithmetic, Sigmoid and Tanh on
// each set of kernels this host has: the assembly, if package init
// selected it, and the portable Go loops.
func onEachPath(f func(path string)) {
	nn, nt, bin, tr := kernNN, kernNT, kernBinary, kernTransc
	defer func() { kernNN, kernNT, kernBinary, kernTransc = nn, nt, bin, tr }()
	if metricMatMulAVX2.Value() == 1 {
		f("avx2")
	}
	kernNN, kernNT, kernBinary, kernTransc = matmulNN, matmulNT, binaryGo, transcGo
	f("portable")
}

// leveled runs f and requires the pool's live-byte gauge to end where it
// began: every buffer a kernel took it either returned or handed to the
// caller, who recycles it inside f.
func leveled(t *testing.T, f func()) {
	t.Helper()
	start := metricPoolLive.Value()
	f()
	if got := metricPoolLive.Value(); got != start {
		t.Fatalf("pool live bytes moved by %d: a kernel left a buffer checked out", got-start)
	}
}

var extents = []int{0, 1, 1, 2, 3, 3, 5, 7}

func randShape(r *rand.Rand, rank int) []int {
	s := make([]int, rank)
	for i := range s {
		s[i] = extents[r.Intn(len(extents))]
	}
	return s
}

// interesting values: zeros of both signs, ones, and ordinary numbers, so a
// sum can cancel and a skipped zero would show.
func randFloats(r *rand.Rand, shape ...int) *Tensor {
	t := New(Float, shape...)
	for i := range t.F {
		switch r.Intn(8) {
		case 0:
			t.F[i] = 0
		case 1:
			t.F[i] = math.Copysign(0, -1)
		case 2:
			t.F[i] = float64(r.Intn(5) - 2)
		default:
			t.F[i] = r.NormFloat64()
		}
	}
	return t
}

func randOf(r *rand.Rand, dt DType, shape ...int) *Tensor {
	t := New(dt, shape...)
	for i := 0; i < t.Size(); i++ {
		switch dt {
		case Float:
			t.F[i] = r.NormFloat64()
		case Int:
			t.I[i] = int64(r.Intn(9) - 4)
		case Bool:
			t.B[i] = r.Intn(2) == 0
		case Str:
			t.S[i] = fmt.Sprint("s", r.Intn(100))
		}
	}
	return t
}

// operandShapes draws an output shape and two operand shapes that broadcast
// to it: each operand may lack leading axes and hold any axis at 1.
func operandShapes(r *rand.Rand) (a, b []int) {
	out := randShape(r, r.Intn(5))
	derive := func() []int {
		s := append([]int(nil), out[r.Intn(len(out)+1):]...)
		for i := range s {
			if r.Intn(3) == 0 {
				s[i] = 1
			}
		}
		return s
	}
	switch r.Intn(4) {
	case 0:
		return out, derive()
	case 1:
		return derive(), out
	case 2:
		return append([]int(nil), out...), append([]int(nil), out...)
	}
	return derive(), derive()
}

func TestWalkerMergesAxes(t *testing.T) {
	runs := func(shape, sa, sb []int) (n, run int) {
		var buf [walkInline]walkAxis
		w := newWalker(buf[:0], shape, sa, sb)
		for w.next() {
			n++
		}
		return n, w.run
	}
	var abuf, bbuf [walkInline]int
	out := []int{16, 256}
	if n, run := runs(out, broadcastStrides(abuf[:0], []int{16, 256}, out), broadcastStrides(bbuf[:0], []int{256}, out)); n != 16 || run != 256 {
		t.Errorf("[16,256]+[256]: %d runs of %d, want 16 of 256", n, run)
	}
	if n, run := runs(out, keptStrides(abuf[:0], out, nil), keptStrides(bbuf[:0], out, nil)); n != 1 || run != 16*256 {
		t.Errorf("same shape: %d runs of %d, want one of %d", n, run, 16*256)
	}
	// The rnn gate split: [16,4,64] read as (1,0,2) is 64 contiguous rows.
	if n, run := runs([]int{4, 16, 64}, []int{64, 256, 1}, nil); n != 64 || run != 64 {
		t.Errorf("perm (1,0,2): %d runs of %d, want 64 of 64", n, run)
	}
	if n, _ := runs([]int{3, 0, 2}, []int{0, 2, 1}, nil); n != 0 {
		t.Errorf("empty shape: %d runs, want none", n)
	}
	if n, run := runs(nil, nil, nil); n != 1 || run != 1 {
		t.Errorf("scalar: %d runs of %d, want one of one", n, run)
	}
}

// TestDifferentialBinary compares the broadcasting binaries with refBinary
// on each kernel path: on random shapes, and on the runs kernBinary has
// loops for — both operands contiguous, a one element, b one element — at
// every length 0–67, across the assembly's cut and unrolled passes, and at
// 16 384, with values from specials (NaNs of several payloads, infinities,
// subnormals) and zeros of both signs.
func TestDifferentialBinary(t *testing.T) {
	type op struct {
		name string
		into func(dst, a, b *Tensor) (*Tensor, error)
		fn   func(x, y float64) float64
	}
	opsUnderTest := []op{
		{"Add", AddInto, func(x, y float64) float64 { return x + y }},
		{"Sub", SubInto, func(x, y float64) float64 { return x - y }},
		{"Mul", MulInto, func(x, y float64) float64 { return x * y }},
		{"Div", DivInto, func(x, y float64) float64 { return x / y }},
		{"Pow", PowInto, math.Pow},
		{"Maximum", MaximumInto, math.Max},
		{"Minimum", MinimumInto, math.Min},
		{"Mod", ModInto, math.Mod},
	}
	check := func(o op, a, b *Tensor) {
		want, err := refBinary(a, b, o.fn)
		if err != nil {
			t.Fatal(err)
		}
		for _, which := range []string{"nil", "a", "b"} {
			leveled(t, func() {
				onEachPath(func(path string) {
					what := fmt.Sprintf("%s %s %v,%v dst=%s", path, o.name, a.shape, b.shape, which)
					// Operands the kernel may overwrite are pooled copies.
					x, y := pooledCopy(a), pooledCopy(b)
					dst := map[string]*Tensor{"a": x, "b": y}[which]
					got, err := o.into(dst, x, y)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameBits(t, what, got, want)
					if fits := dst != nil && ShapeEq(dst.shape, want.shape); fits != (got == dst) {
						t.Fatalf("%s: dst fits %v but result is dst %v", what, fits, got == dst)
					}
					if got != x {
						Recycle(x)
					}
					if got != y {
						Recycle(y)
					}
					Recycle(got)
				})
			})
		}
	}
	r := rand.New(rand.NewSource(18))
	for c := 0; c < 400; c++ {
		as, bs := operandShapes(r)
		a, b := randFloats(r, as...), randFloats(r, bs...)
		for _, o := range opsUnderTest {
			check(o, a, b)
		}
	}
	lengths := []int{16384}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, layout := range [][2][]int{{{n}, {n}}, {nil, {n}}, {{n}, nil}} {
			a, b := randSpecials(r, 3, true, layout[0]...), randSpecials(r, 3, true, layout[1]...)
			for _, o := range opsUnderTest[:4] {
				check(o, a, b)
			}
		}
	}
}

func TestDifferentialBinaryInt(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for c := 0; c < 100; c++ {
		as, bs := operandShapes(r)
		a, b := randOf(r, Int, as...), randOf(r, Int, bs...)
		af, _ := Cast(a, Float)
		bf, _ := Cast(b, Float)
		wantF, err := refBinary(af, bf, func(x, y float64) float64 { return x * y })
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Cast(wantF, Int)
		Recycle(af)
		Recycle(bf)
		leveled(t, func() {
			got, err := Mul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("int Mul %v,%v", as, bs), got, want)
			Recycle(got)
		})
		Recycle(want)
	}
}

func TestDifferentialCompareAndLogical(t *testing.T) {
	compares := []struct {
		name string
		op   func(a, b *Tensor) (*Tensor, error)
		fn   func(x, y float64) bool
	}{
		{"Greater", Greater, func(x, y float64) bool { return x > y }},
		{"GreaterEqual", GreaterEqual, func(x, y float64) bool { return x >= y }},
		{"Less", Less, func(x, y float64) bool { return x < y }},
		{"LessEqual", LessEqual, func(x, y float64) bool { return x <= y }},
		{"Equal", EqualElems, func(x, y float64) bool { return x == y }},
		{"NotEqual", NotEqual, func(x, y float64) bool { return x != y }},
	}
	logicals := []struct {
		name string
		op   func(a, b *Tensor) (*Tensor, error)
		fn   func(x, y bool) bool
	}{
		{"LogicalAnd", LogicalAnd, func(x, y bool) bool { return x && y }},
		{"LogicalOr", LogicalOr, func(x, y bool) bool { return x || y }},
	}
	r := rand.New(rand.NewSource(20))
	for c := 0; c < 300; c++ {
		as, bs := operandShapes(r)
		shape, err := refBroadcastShapes(as, bs)
		if err != nil {
			t.Fatal(err)
		}
		a, b := randFloats(r, as...), randFloats(r, bs...)
		for _, o := range compares {
			want := New(Bool, shape...)
			refZip(want.B, a.F, b.F, shape, as, bs, o.fn)
			leveled(t, func() {
				got, err := o.op(a, b)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%s %v,%v", o.name, as, bs), got, want)
				Recycle(got)
			})
		}
		p, q := randOf(r, Bool, as...), randOf(r, Bool, bs...)
		for _, o := range logicals {
			want := New(Bool, shape...)
			refZip(want.B, p.B, q.B, shape, as, bs, o.fn)
			leveled(t, func() {
				got, err := o.op(p, q)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%s %v,%v", o.name, as, bs), got, want)
				Recycle(got)
			})
		}
	}
}

func TestDifferentialUnary(t *testing.T) {
	unaries := []struct {
		name string
		into func(dst, t *Tensor) (*Tensor, error)
		fn   func(float64) float64
	}{
		{"Neg", NegInto, func(x float64) float64 { return -x }},
		{"Square", SquareInto, func(x float64) float64 { return x * x }},
		{"Relu", ReluInto, func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		}},
		{"Tanh", TanhInto, math.Tanh},
		{"Sigmoid", SigmoidInto, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
		{"Exp", ExpInto, math.Exp},
	}
	r := rand.New(rand.NewSource(21))
	for c := 0; c < 100; c++ {
		x := randFloats(r, randShape(r, r.Intn(5))...)
		x.F = append(x.F[:0:0], x.F...)
		if len(x.F) > 0 {
			x.F[0] = math.NaN()
		}
		for _, o := range unaries {
			want := New(Float, x.shape...)
			for i, v := range x.F {
				want.F[i] = o.fn(v)
			}
			for _, inPlace := range []bool{false, true} {
				leveled(t, func() {
					in := pooledCopy(x)
					var dst *Tensor
					if inPlace {
						dst = in
					}
					got, err := o.into(dst, in)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("%s %v in place %v", o.name, x.shape, inPlace), got, want)
					if (got == in) != inPlace {
						t.Fatalf("%s: in place %v but result aliases input %v", o.name, inPlace, got == in)
					}
					if got != in {
						Recycle(in)
					}
					Recycle(got)
				})
			}
		}
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

func TestDifferentialTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for rank := 0; rank <= 4; rank++ {
		for _, perm := range permutations(rank) {
			for _, dt := range []DType{Float, Int, Bool, Str} {
				for c := 0; c < 6; c++ {
					shape := randShape(r, rank)
					if c == 0 && rank >= 2 { // one case wider than a transpose tile
						shape[0], shape[rank-1] = 2*transposeBlock+3, transposeBlock+5
					}
					x := randOf(r, dt, shape...)
					want, err := refTranspose(x, perm...)
					if rank == 0 {
						// No perm means "the matrix transpose": an error at
						// rank 0, then as now.
						if _, gotErr := Transpose(x, perm...); err == nil || gotErr == nil {
							t.Fatalf("rank-0 Transpose: reference error %v, got %v", err, gotErr)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					leveled(t, func() {
						got, err := Transpose(x, perm...)
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, fmt.Sprintf("Transpose %v %v perm %v", dt, shape, perm), got, want)
						Recycle(got)
					})
				}
			}
		}
	}
	x := randOf(r, Float, 5, 7)
	want, _ := refTranspose(x)
	got, err := Transpose(x)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "default Transpose", got, want)
	for _, bad := range [][]int{{0, 0}, {0, 2}, {-1, 0}, {0}, {0, 1, 2}} {
		if _, err := Transpose(x, bad...); err == nil {
			t.Errorf("Transpose perm %v: no error", bad)
		}
	}
}

// axisSubsets returns every subset of 0..rank-1, the empty one (meaning "all
// axes") included, some spelled with negative or repeated axes.
func axisSubsets(rank int) [][]int {
	var out [][]int
	for mask := 0; mask < 1<<uint(rank); mask++ {
		var ax []int
		for i := rank - 1; i >= 0; i-- { // descending: the kernel must sort
			if mask&(1<<uint(i)) != 0 {
				ax = append(ax, i)
			}
		}
		out = append(out, ax)
		if len(ax) > 0 {
			out = append(out, append([]int{ax[0] - rank, ax[0]}, ax...))
		}
	}
	return out
}

func TestDifferentialReduce(t *testing.T) {
	reductions := []struct {
		name string
		op   func(t *Tensor, axes []int, keep bool) (*Tensor, error)
		ref  func(t *Tensor, axes []int, keep bool) (*Tensor, error)
	}{
		{"Sum", ReduceSum, refReduceSum},
		{"Max", ReduceMax, func(t *Tensor, axes []int, keep bool) (*Tensor, error) {
			return refReduce(t, axes, keep, math.Inf(-1), math.Max)
		}},
		{"Min", ReduceMin, func(t *Tensor, axes []int, keep bool) (*Tensor, error) {
			return refReduce(t, axes, keep, math.Inf(1), math.Min)
		}},
		{"Mean", ReduceMean, refReduceMean},
	}
	r := rand.New(rand.NewSource(23))
	for rank := 0; rank <= 4; rank++ {
		for c := 0; c < 8; c++ {
			x := randFloats(r, randShape(r, rank)...)
			for _, axes := range axisSubsets(rank) {
				for _, keep := range []bool{false, true} {
					for _, o := range reductions {
						want, err := o.ref(x, axes, keep)
						if err != nil {
							t.Fatal(err)
						}
						leveled(t, func() {
							got, err := o.op(x, axes, keep)
							if err != nil {
								t.Fatal(err)
							}
							sameBits(t, fmt.Sprintf("%s %v axes %v keep %v", o.name, x.shape, axes, keep), got, want)
							Recycle(got)
						})
					}
				}
			}
			for axis := -rank; axis < rank; axis++ {
				want, err := refArgMax(x, axis)
				if err != nil {
					t.Fatal(err)
				}
				leveled(t, func() {
					got, err := ArgMax(x, axis)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("ArgMax %v axis %d", x.shape, axis), got, want)
					Recycle(got)
				})
			}
		}
	}
	if _, err := ReduceSum(New(Float, 2, 3), []int{2}, false); err == nil {
		t.Error("axis out of range: no error")
	}
}

func TestDifferentialBroadcastRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for c := 0; c < 400; c++ {
		small, big := operandShapes(r)
		full, err := refBroadcastShapes(small, big)
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range []DType{Float, Int, Bool, Str} {
			x := randOf(r, dt, small...)
			want, err := refBroadcastTo(x, full)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BroadcastTo(x, full)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("BroadcastTo %v %v -> %v", dt, small, full), got, want)
		}
		// And back: the gradient of the broadcast sums g down to small, one
		// axis at a time, in the reference's order.
		g := randFloats(r, full...)
		want, err := refUnbroadcastTo(g, small)
		if err != nil {
			t.Fatal(err)
		}
		for _, forward := range []bool{false, true} {
			what := fmt.Sprintf("UnbroadcastTo %v -> %v forwarded %v", full, small, forward)
			leveled(t, func() {
				in := pooledCopy(g)
				var dst *Tensor
				if forward {
					dst = in
				}
				got, err := UnbroadcastInto(dst, in, small)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameBits(t, what, got, want)
				if (got == in) != (forward && ShapeEq(full, small)) {
					t.Fatalf("%s: result aliases its input: %v", what, got == in)
				}
				if got != in {
					Recycle(in)
				}
				Recycle(got)
			})
		}
	}
	if _, err := UnbroadcastTo(New(Float, 3), []int{4}); err == nil {
		t.Error("UnbroadcastTo [3] -> [4]: no error")
	}
	if _, err := BroadcastTo(New(Float, 3), []int{4}); err == nil {
		t.Error("BroadcastTo [3] -> [4]: no error")
	}
}

func TestReshapeForwardsOrCopiesFromPool(t *testing.T) {
	x := FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	leveled(t, func() {
		got, err := x.Reshape(3, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got == x || !ShapeEq(got.shape, []int{3, 2}) || &got.F[0] == &x.F[0] {
			t.Fatalf("Reshape must copy: got %v", got)
		}
		sameBits(t, "Reshape copy", got, FromFloats(x.F, 3, 2))
		// In place: same tensor, same storage, new shape; a pooled tensor's
		// accounting is by element count, so it still balances.
		again, err := ReshapeInto(got, got, []int{-1})
		if err != nil {
			t.Fatal(err)
		}
		if again != got || !ShapeEq(again.shape, []int{6}) {
			t.Fatalf("ReshapeInto(dst == t) must re-shape in place: got %v", again)
		}
		Recycle(again)
	})
	for _, bad := range [][]int{{4}, {-1, -1}, {-1, 4}, {-2, -3}, {0, -1}} {
		if _, err := x.Reshape(bad...); err == nil {
			t.Errorf("Reshape %v: no error", bad)
		}
	}
	if !ShapeEq(x.shape, []int{2, 3}) {
		t.Fatalf("failed reshapes changed the receiver's shape to %v", x.shape)
	}
	empty := New(Float, 0, 3)
	if got, err := empty.Reshape(3, 0, 5); err != nil || got.Size() != 0 {
		t.Errorf("Reshape of an empty tensor: %v, %v", got, err)
	}
}

// matDims straddle the edges the kernels have: the unroll of four products,
// the 4- and 8-column tiles and their overlapped last tile, the four-row
// block, and the workloads' own extents.
var matDims = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 17, 31, 32, 33, 64, 96, 100, 256}

// specials are the values arithmetic treats differently: infinities, NaNs of
// several payloads (one signaling), subnormals, and magnitudes whose products
// overflow to an infinity that a later product can cancel into a NaN.
var specials = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff0000000000007), 5e-324, -5e-324, 1e-310, 1e200, -1e200,
}

// randSpecials is randFloats with about one element in rate drawn from
// specials. With zeros false it holds no zero: refMatMul skips the zeros of
// its left operand, so a zero there may only meet finite values (the one
// divergence, pinned by TestMatMulZeroTimesInfIsNaN).
func randSpecials(r *rand.Rand, rate int, zeros bool, shape ...int) *Tensor {
	t := randFloats(r, shape...)
	for i, v := range t.F {
		switch {
		case r.Intn(rate) == 0:
			t.F[i] = specials[r.Intn(len(specials))]
		case v == 0 && !zeros:
			t.F[i] = 0.5
		}
	}
	return t
}

func TestDifferentialMatMul(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for c := 0; c < 400; c++ {
		m, k, n := matDims[r.Intn(len(matDims))], matDims[r.Intn(len(matDims))], matDims[r.Intn(len(matDims))]
		batch := []int{}
		if c%2 == 1 {
			// Odd extents put every batch after the first at an offset that
			// is no multiple of 32 bytes.
			batch = []int{r.Intn(4)}
		}
		last := len(batch)
		as, bs := append(append([]int(nil), batch...), m, k), append(append([]int(nil), batch...), k, n)
		a, b := randFloats(r, as...), randFloats(r, bs...)
		if c%4 >= 2 {
			rate := []int{4, 40, 400}[r.Intn(3)]
			a, b = randSpecials(r, rate, false, as...), randSpecials(r, rate, true, bs...)
			if len(a.F) > 0 && n > 0 {
				// Row i of a positive and column j of b all −0: every product
				// of out[i,j] is −0, and summed from +0 that is +0.
				i, j := r.Intn(m), r.Intn(n)
				for p := 0; p < k; p++ {
					a.F[i*k+p], b.F[p*n+j] = 1.5, math.Copysign(0, -1)
				}
			}
		}
		want, err := refMatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		twoNaNs := make([]bool, len(want.F))
		for i := range twoNaNs {
			row, col, sum := i/n*k, i/(m*n)*k*n+i%n, 0.0
			for p := 0; p < k && !twoNaNs[i]; p++ {
				x, y := a.F[row+p], b.F[col+p*n]
				twoNaNs[i] = math.IsNaN(x) && math.IsNaN(y) || math.IsNaN(sum) && math.IsNaN(x*y)
				sum += x * y
			}
		}
		// Store each operand the way the attrs say it is stored, by the
		// reference transpose.
		swap := make([]int, last+2)
		for i := range swap {
			swap[i] = i
		}
		swap[last], swap[last+1] = last+1, last
		at, _ := refTranspose(a, swap...)
		bt, _ := refTranspose(b, swap...)
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				x, y := a, b
				if ta {
					x = at
				}
				if tb {
					y = bt
				}
				leveled(t, func() {
					var first *Tensor // the first path's product, for the second to match
					onEachPath(func(path string) {
						what := fmt.Sprintf("%s MatMul %v x %v transpose_a %v transpose_b %v", path, x.shape, y.shape, ta, tb)
						got, err := MatMulT(x, y, ta, tb)
						if err != nil {
							t.Fatal(err)
						}
						sameProduct(t, what, got, want, twoNaNs)
						if first != nil {
							sameProduct(t, what+", against the other path", got, first, twoNaNs)
							Recycle(first)
						}
						first = got
					})
					Recycle(first)
				})
			}
		}
	}
	a, b := New(Float, 2, 3), New(Float, 4, 5)
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			if _, err := MatMulT(a, b, ta, tb); err == nil {
				t.Errorf("MatMul [2,3] x [4,5] (%v, %v): no error", ta, tb)
			}
		}
	}
	if _, err := MatMul(New(Float, 2, 3, 4), New(Float, 3, 4, 5)); err == nil {
		t.Error("batched MatMul with different batches: no error")
	}
	if _, err := MatMul(New(Float, 2, 3), New(Float, 1, 3, 4)); err == nil {
		t.Error("MatMul of rank 2 by rank 3: no error")
	}
}

// TestMatMulZeroTimesInfIsNaN pins the one intended divergence from the old
// kernel, whose `if av == 0 { continue }` turned 0·Inf and 0·NaN into 0 and so
// hid a poisoned weight from the loss.
func TestMatMulZeroTimesInfIsNaN(t *testing.T) {
	onEachPath(func(path string) {
		zero := FromFloats([]float64{0}, 1, 1)
		for _, poison := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			bad := FromFloats([]float64{poison}, 1, 1)
			for _, ta := range []bool{false, true} {
				for _, tb := range []bool{false, true} {
					got, err := MatMulT(zero, bad, ta, tb)
					if err != nil {
						t.Fatal(err)
					}
					if !math.IsNaN(got.F[0]) {
						t.Errorf("%s MatMul([[0]], [[%v]]) transpose_a %v transpose_b %v = %v, want NaN", path, poison, ta, tb, got.F[0])
					}
				}
			}
		}
		// In a longer row too, in every position of an unrolled block, and in
		// a product wide enough for the assembly's tiles: column 1 is in the
		// first tile of either kernel, column 8 in an overlapped last one.
		const n = 9
		for k := 1; k <= 9; k++ {
			for at := 0; at < k; at++ {
				a, b := Full(1, 2, k), Full(1, k, n)
				a.F[at], b.F[at*n+1], b.F[at*n+8] = 0, math.Inf(1), math.Inf(-1)
				aT, _ := Transpose(a)
				bT, _ := Transpose(b)
				for _, ta := range []bool{false, true} {
					for _, tb := range []bool{false, true} {
						x, y := a, b
						if ta {
							x = aT
						}
						if tb {
							y = bT
						}
						got, err := MatMulT(x, y, ta, tb)
						if err != nil {
							t.Fatal(err)
						}
						for j, v := range got.F[:n] {
							if poisoned := j == 1 || j == 8; math.IsNaN(v) != poisoned || !poisoned && v != float64(k-1) {
								t.Errorf("%s k=%d, zero at %d, transpose_a %v transpose_b %v: row 0 of the product is %v, want %d with NaN at 1 and 8",
									path, k, at, ta, tb, got.F[:n], k-1)
								break
							}
						}
					}
				}
			}
		}
	})
}

// transcEdges are the inputs on both sides of every threshold the lane
// kernels hand a block to the Go loop at, and the values no threshold names
// but a lane must still get right: archExp's overflow cut, the x·log2(e)
// that round to the first and last normal exponents and to the edge of
// underflow, Tanh's two branch points, zeros, infinities and NaNs. Each comes
// with its negation (Sigmoid exponentiates -x) and its nearest neighbours.
func transcEdges() []float64 {
	var xs []float64
	near := func(v float64) {
		for _, w := range []float64{v, -v} {
			lo, hi := w, w
			for i := 0; i < 3; i++ {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				xs = append(xs, lo, hi)
			}
			xs = append(xs, w)
		}
	}
	const overflow, maxLog = 7.09782712893384e+02, 8.8029691931113054295988e+01
	near(overflow)
	// k = round(x·log2(e)); the fast path needs 0 < k+1023 < 2047, and the
	// Go loop's denormal results end where k+1023 < -52.
	for _, k := range []float64{-1076, -1075, -1024, -1023, -1022, 1022, 1023, 1024} {
		near((k + 0.5) * math.Ln2)
	}
	near(0.625)
	near(0.5 * maxLog)
	near(0)
	near(math.SmallestNonzeroFloat64)
	near(math.MaxFloat64)
	near(1e-300)
	xs = append(xs, math.Inf(1), math.Inf(-1))
	xs = append(xs, specials...)
	return xs
}

// TestDifferentialTransc runs Sigmoid and Tanh on each path and requires,
// element by element, the bits of sigFn and math.Tanh: every lane of the
// assembly does those functions' operations, and a block with a lane they
// would take off the fast path goes to the Go loop whole. The inputs are
// seeded normal, wide and random-bit values, and transcEdges one to a block
// of ordinary values and all together; every input starts at each offset
// within a block of four, runs at lengths 0–9 too, and is computed in place
// and not.
func TestDifferentialTransc(t *testing.T) {
	ops := []struct {
		name string
		into func(dst, t *Tensor) (*Tensor, error)
		fn   func(float64) float64
	}{
		{"Sigmoid", SigmoidInto, sigFn},
		{"Tanh", TanhInto, math.Tanh},
	}
	r := rand.New(rand.NewSource(38))
	const n = 1 << 13
	sets := map[string][]float64{}
	for i := 0; i < n; i++ {
		sets["normal"] = append(sets["normal"], r.NormFloat64())
		sets["wide"] = append(sets["wide"], (r.Float64()-0.5)*1600)
		sets["bits"] = append(sets["bits"], math.Float64frombits(r.Uint64()))
	}
	edges := transcEdges()
	for _, e := range edges {
		sets["edge in a block"] = append(sets["edge in a block"], e, r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
	}
	sets["edges"] = edges

	check := func(what string, x []float64) {
		for _, o := range ops {
			want := New(Float, len(x))
			for i, v := range x {
				want.F[i] = o.fn(v)
			}
			for _, inPlace := range []bool{false, true} {
				leveled(t, func() {
					in := pooledCopy(FromFloats(x, len(x)))
					var dst *Tensor
					if inPlace {
						dst = in
					}
					got, err := o.into(dst, in)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("%s %s in place %v", what, o.name, inPlace), got, want)
					if got != in {
						Recycle(in)
					}
					Recycle(got)
				})
			}
		}
	}
	onEachPath(func(path string) {
		for name, xs := range sets {
			for off := 0; off < 4; off++ {
				check(fmt.Sprintf("%s %s from %d", path, name, off), xs[off:])
			}
			for l := 0; l <= 9; l++ {
				check(fmt.Sprintf("%s %s length %d", path, name, l), xs[:l])
			}
		}
	})
}

// TestDifferentialActivationGrad compares SigmoidGrad and TanhGrad with the
// chains of ops the gradients of Sigmoid and Tanh used to build, bit for bit
// but for the NaN rule of sameProduct: where dy and the factor it multiplies
// are both NaN, which payload survives is the compiler's choice.
func TestDifferentialActivationGrad(t *testing.T) {
	must := func(r *Tensor, err error) *Tensor {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	grads := []struct {
		name  string
		into  func(dst, y, dy *Tensor) (*Tensor, error)
		chain func(y, dy *Tensor) (factor, grad *Tensor)
	}{
		{"SigmoidGrad", SigmoidGradInto, func(y, dy *Tensor) (*Tensor, *Tensor) {
			f := must(Mul(y, must(SubInto(nil, OnesLike(y), y))))
			return f, must(Mul(dy, f))
		}},
		{"TanhGrad", TanhGradInto, func(y, dy *Tensor) (*Tensor, *Tensor) {
			f := must(SubInto(nil, OnesLike(y), must(Mul(y, y))))
			return f, must(Mul(dy, f))
		}},
	}
	r := rand.New(rand.NewSource(39))
	for c := 0; c < 200; c++ {
		shape := randShape(r, r.Intn(4))
		y, dy := randSpecials(r, 6, true, shape...), randSpecials(r, 6, true, shape...)
		for _, g := range grads {
			factor, want := g.chain(y, dy)
			twoNaNs := make([]bool, len(want.F))
			for i, f := range factor.F {
				twoNaNs[i] = math.IsNaN(f) && math.IsNaN(dy.F[i])
			}
			for _, which := range []string{"", "y", "dy"} {
				leveled(t, func() {
					yy, dd := pooledCopy(y), pooledCopy(dy)
					dst := map[string]*Tensor{"y": yy, "dy": dd}[which]
					got := must(g.into(dst, yy, dd))
					sameProduct(t, fmt.Sprintf("%s %v dst=%s", g.name, shape, which), got, want, twoNaNs)
					if (got == dst) != (dst != nil) {
						t.Fatalf("%s: dst %s not written in place", g.name, which)
					}
					for _, x := range []*Tensor{yy, dd} {
						if x != got {
							Recycle(x)
						}
					}
					Recycle(got)
				})
			}
		}
	}
	if _, err := SigmoidGradInto(nil, FromFloats([]float64{1, 2}, 2), FromFloats([]float64{1}, 1)); err == nil {
		t.Error("SigmoidGrad of shapes [2] and [1]: no error")
	}
	if _, err := TanhGradInto(nil, FromInts([]int64{1}, 1), FromFloats([]float64{1}, 1)); err == nil {
		t.Error("TanhGrad of an int operand: no error")
	}
}
