package tensor

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(Float, 2, 3)
	if x.Rank() != 2 || x.Size() != 6 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad shape bookkeeping: %v", x)
	}
	if x.DType() != Float {
		t.Fatalf("dtype = %v", x.DType())
	}
	s := x.Shape()
	s[0] = 99
	if x.Dim(0) != 2 {
		t.Fatal("Shape() aliases internal slice")
	}
}

func TestScalarConstructors(t *testing.T) {
	if Scalar(3.5).ScalarValue() != 3.5 {
		t.Fatal("Scalar")
	}
	if ScalarInt(7).ScalarIntValue() != 7 {
		t.Fatal("ScalarInt")
	}
	if !ScalarBool(true).ScalarBoolValue() {
		t.Fatal("ScalarBool")
	}
}

func TestFromFloatsPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromFloats([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromFloats([]float64{1, 2}, 2)
	y := x.Clone()
	y.F[0] = 99
	if x.F[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshape(t *testing.T) {
	x := arange(0, 12)
	y, err := x.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("reshape got %v", y.Shape())
	}
	z, err := y.Reshape(-1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if z.Dim(0) != 2 {
		t.Fatalf("infer -1 got %v", z.Shape())
	}
	if _, err := y.Reshape(5, 5); err == nil {
		t.Fatal("expected reshape error")
	}
	if _, err := y.Reshape(-1, -1); err == nil {
		t.Fatal("expected double -1 error")
	}
}

func TestAddBroadcast(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromFloats([]float64{10, 20, 30}, 3)
	c, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromFloats([]float64{11, 22, 33, 14, 25, 36}, 2, 3)
	if !equal(c, want) {
		t.Fatalf("got %v want %v", c, want)
	}
}

func TestBroadcastScalar(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3}, 3)
	c, err := Mul(a, Scalar(2))
	if err != nil {
		t.Fatal(err)
	}
	if !equal(c, FromFloats([]float64{2, 4, 6}, 3)) {
		t.Fatalf("got %v", c)
	}
}

// TestBroadcastSingleElement covers the straight loop for a one-element
// operand: either side, any rank of the single element (which may raise the
// output's rank), in place, and on non-commutative ops.
func TestBroadcastSingleElement(t *testing.T) {
	m := func() *Tensor { return FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3) }
	one := FromFloats([]float64{2}, 1, 1, 1)
	cases := []struct {
		name string
		got  func() (*Tensor, error)
		want *Tensor
	}{
		{"matrix-scalar", func() (*Tensor, error) { return SubInto(nil, m(), Scalar(2)) }, FromFloats([]float64{-1, 0, 1, 2, 3, 4}, 2, 3)},
		{"scalar-matrix", func() (*Tensor, error) { return SubInto(nil, Scalar(2), m()) }, FromFloats([]float64{1, 0, -1, -2, -3, -4}, 2, 3)},
		{"matrix/[1,1,1]", func() (*Tensor, error) { return DivInto(nil, m(), one) }, FromFloats([]float64{0.5, 1, 1.5, 2, 2.5, 3}, 1, 2, 3)},
		{"[1,1,1]/scalar", func() (*Tensor, error) { return DivInto(nil, one, Scalar(4)) }, FromFloats([]float64{0.5}, 1, 1, 1)},
		{"empty*scalar", func() (*Tensor, error) { return Mul(Zeros(0, 3), Scalar(2)) }, Zeros(0, 3)},
		{"in place", func() (*Tensor, error) { a := m(); return MulInto(a, a, Scalar(2)) }, FromFloats([]float64{2, 4, 6, 8, 10, 12}, 2, 3)},
	}
	for _, c := range cases {
		got, err := c.got()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !ShapeEq(got.Shape(), c.want.Shape()) || (got.Size() > 0 && !equal(got, c.want)) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBroadcastError(t *testing.T) {
	a := Zeros(2, 3)
	b := Zeros(2, 4)
	if _, err := Add(a, b); err == nil {
		t.Fatal("expected broadcast error")
	}
}

func TestBroadcastColumnVsRow(t *testing.T) {
	col := FromFloats([]float64{1, 2}, 2, 1)
	row := FromFloats([]float64{10, 20, 30}, 1, 3)
	c, err := Add(col, row)
	if err != nil {
		t.Fatal(err)
	}
	want := FromFloats([]float64{11, 21, 31, 12, 22, 32}, 2, 3)
	if !equal(c, want) {
		t.Fatalf("got %v want %v", c, want)
	}
}

func TestIntArithmetic(t *testing.T) {
	a := FromInts([]int64{1, 2}, 2)
	b := FromInts([]int64{10, 20}, 2)
	c, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.DType() != Int || c.I[0] != 11 || c.I[1] != 22 {
		t.Fatalf("int add got %v", c)
	}
}

func TestSubMulDivPow(t *testing.T) {
	a := FromFloats([]float64{4, 9}, 2)
	b := FromFloats([]float64{2, 3}, 2)
	if r, _ := SubInto(nil, a, b); !equal(r, FromFloats([]float64{2, 6}, 2)) {
		t.Fatal("Sub")
	}
	if r, _ := Mul(a, b); !equal(r, FromFloats([]float64{8, 27}, 2)) {
		t.Fatal("Mul")
	}
	if r, _ := DivInto(nil, a, b); !equal(r, FromFloats([]float64{2, 3}, 2)) {
		t.Fatal("Div")
	}
	if r, _ := PowInto(nil, a, b); !equal(r, FromFloats([]float64{16, 729}, 2)) {
		t.Fatal("Pow")
	}
}

func TestUnaryOps(t *testing.T) {
	x := FromFloats([]float64{-1, 0, 2}, 3)
	if r, _ := NegInto(nil, x); !equal(r, FromFloats([]float64{1, 0, -2}, 3)) {
		t.Fatal("Neg")
	}
	if r, _ := AbsInto(nil, x); !equal(r, FromFloats([]float64{1, 0, 2}, 3)) {
		t.Fatal("Abs")
	}
	if r, _ := ReluInto(nil, x); !equal(r, FromFloats([]float64{0, 0, 2}, 3)) {
		t.Fatal("Relu")
	}
	if r, _ := SignInto(nil, x); !equal(r, FromFloats([]float64{-1, 0, 1}, 3)) {
		t.Fatal("Sign")
	}
	if r, _ := SquareInto(nil, x); !equal(r, FromFloats([]float64{1, 0, 4}, 3)) {
		t.Fatal("Square")
	}
}

func TestSigmoidTanhRange(t *testing.T) {
	x := FromFloats([]float64{-100, 0, 100}, 3)
	s, _ := SigmoidInto(nil, x)
	if s.F[0] > 1e-10 || s.F[1] != 0.5 || s.F[2] < 1-1e-10 {
		t.Fatalf("Sigmoid got %v", s)
	}
	th, _ := TanhInto(nil, x)
	if th.F[0] != -1 || th.F[1] != 0 || th.F[2] != 1 {
		t.Fatalf("Tanh got %v", th)
	}
}

func TestComparisons(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3}, 3)
	b := FromFloats([]float64{2, 2, 2}, 3)
	g, _ := Greater(a, b)
	if g.B[0] || g.B[1] || !g.B[2] {
		t.Fatalf("Greater got %v", g)
	}
	l, _ := Less(a, b)
	if !l.B[0] || l.B[1] || l.B[2] {
		t.Fatalf("Less got %v", l)
	}
	e, _ := EqualElems(a, b)
	if e.B[0] || !e.B[1] || e.B[2] {
		t.Fatalf("Equal got %v", e)
	}
}

func TestLogicalOps(t *testing.T) {
	a := FromBools([]bool{true, true, false}, 3)
	b := FromBools([]bool{true, false, false}, 3)
	and, _ := LogicalAnd(a, b)
	if !and.B[0] || and.B[1] || and.B[2] {
		t.Fatal("And")
	}
	or, _ := LogicalOr(a, b)
	if !or.B[0] || !or.B[1] || or.B[2] {
		t.Fatal("Or")
	}
	not, _ := LogicalNot(a)
	if not.B[0] || not.B[1] || !not.B[2] {
		t.Fatal("Not")
	}
}

func TestSelect(t *testing.T) {
	cond := FromBools([]bool{true, false}, 2)
	a := FromFloats([]float64{1, 2, 3, 4}, 2, 2)
	b := FromFloats([]float64{10, 20, 30, 40}, 2, 2)
	r, err := Select(cond, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromFloats([]float64{1, 2, 30, 40}, 2, 2)
	if !equal(r, want) {
		t.Fatalf("got %v want %v", r, want)
	}
}

func TestAddN(t *testing.T) {
	a := Full(1, 2)
	r, err := AddN(a, a, a)
	if err != nil || !equal(r, FromFloats([]float64{3, 3}, 2)) {
		t.Fatalf("AddN got %v err %v", r, err)
	}
}

func TestMatMul(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromFloats([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromFloats([]float64{58, 64, 139, 154}, 2, 2)
	if !equal(c, want) {
		t.Fatalf("got %v want %v", c, want)
	}
	if _, err := MatMul(a, a); err == nil {
		t.Fatal("expected inner-dim error")
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(1)
	a := RandNormal(r, 0, 1, 4, 4)
	c, err := MatMul(a, Eye(4))
	if err != nil || !allClose(a, c, 1e-12) {
		t.Fatalf("A*I != A")
	}
}

func TestBatchedMatMul(t *testing.T) {
	a := FromFloats([]float64{1, 0, 0, 1, 2, 0, 0, 2}, 2, 2, 2)
	b := FromFloats([]float64{1, 2, 3, 4, 1, 2, 3, 4}, 2, 2, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromFloats([]float64{1, 2, 3, 4, 2, 4, 6, 8}, 2, 2, 2)
	if !equal(c, want) {
		t.Fatalf("got %v", c)
	}
}

func TestTranspose(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at, err := Transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromFloats([]float64{1, 4, 2, 5, 3, 6}, 3, 2)
	if !equal(at, want) {
		t.Fatalf("got %v want %v", at, want)
	}
}

func TestTransposePerm(t *testing.T) {
	a := arange(0, 24)
	a3, _ := a.Reshape(2, 3, 4)
	p, err := Transpose(a3, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEq(p.Shape(), []int{4, 2, 3}) {
		t.Fatalf("shape %v", p.Shape())
	}
	// element (i,j,k) of p equals element (j,k,i) of a3
	if p.I[1*6+0*3+2] != a3.I[0*12+2*4+1] {
		t.Fatal("perm values wrong")
	}
}

func TestReduceSum(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	all, _ := ReduceSum(a, nil, false)
	if all.ScalarValue() != 21 {
		t.Fatalf("sum-all got %v", all)
	}
	ax0, _ := ReduceSum(a, []int{0}, false)
	if !equal(ax0, FromFloats([]float64{5, 7, 9}, 3)) {
		t.Fatalf("axis0 got %v", ax0)
	}
	ax1k, _ := ReduceSum(a, []int{1}, true)
	if !equal(ax1k, FromFloats([]float64{6, 15}, 2, 1)) {
		t.Fatalf("axis1 keep got %v", ax1k)
	}
	neg, _ := ReduceSum(a, []int{-1}, false)
	if !equal(neg, FromFloats([]float64{6, 15}, 2)) {
		t.Fatalf("negative axis got %v", neg)
	}
}

func TestReduceMeanMaxMin(t *testing.T) {
	a := FromFloats([]float64{1, 5, 3, 2}, 4)
	if m, _ := ReduceMean(a, nil, false); m.ScalarValue() != 2.75 {
		t.Fatal("mean")
	}
	if m, _ := ReduceMax(a, nil, false); m.ScalarValue() != 5 {
		t.Fatal("max")
	}
	if m, _ := ReduceMin(a, nil, false); m.ScalarValue() != 1 {
		t.Fatal("min")
	}
}

func TestArgMax(t *testing.T) {
	a := FromFloats([]float64{1, 9, 3, 7, 2, 5}, 2, 3)
	am, err := ArgMax(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if am.I[0] != 1 || am.I[1] != 0 {
		t.Fatalf("ArgMax got %v", am)
	}
	am0, _ := ArgMax(a, 0)
	if am0.I[0] != 1 || am0.I[1] != 0 || am0.I[2] != 1 {
		t.Fatalf("ArgMax axis0 got %v", am0)
	}
}

func TestSoftmax(t *testing.T) {
	a := FromFloats([]float64{1, 1, 1, 1000, 0, 0}, 2, 3)
	s, err := Softmax(a)
	if err != nil {
		t.Fatal(err)
	}
	third := 1.0 / 3
	if d := s.F[0] - third; d > 1e-12 || d < -1e-12 {
		t.Fatalf("uniform row got %v", s.F[:3])
	}
	if s.F[3] < 1-1e-10 {
		t.Fatalf("peaked row got %v", s.F[3:])
	}
	// Rows sum to 1.
	sum, _ := ReduceSum(s, []int{1}, false)
	if !allClose(sum, Full(1, 2), 1e-12) {
		t.Fatalf("rows don't sum to 1: %v", sum)
	}
}

func TestConcatSplit(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3, 4}, 2, 2)
	b := FromFloats([]float64{5, 6, 7, 8}, 2, 2)
	c0, err := Concat(0, a, b)
	if err != nil || !ShapeEq(c0.Shape(), []int{4, 2}) {
		t.Fatalf("concat0 %v err %v", c0, err)
	}
	if c0.F[2*2+0] != 5 {
		t.Fatal("concat0 values")
	}
	c1, err := Concat(1, a, b)
	if err != nil || !ShapeEq(c1.Shape(), []int{2, 4}) {
		t.Fatalf("concat1 %v err %v", c1, err)
	}
	want := FromFloats([]float64{1, 2, 5, 6, 3, 4, 7, 8}, 2, 4)
	if !equal(c1, want) {
		t.Fatalf("concat1 got %v want %v", c1, want)
	}
	parts, err := Split(c1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(parts[0], a) || !equal(parts[1], b) {
		t.Fatalf("split roundtrip got %v %v", parts[0], parts[1])
	}
}

func TestStackUnstack(t *testing.T) {
	a := FromFloats([]float64{1, 2}, 2)
	b := FromFloats([]float64{3, 4}, 2)
	s, err := Stack(New, a, b)
	if err != nil || !ShapeEq(s.Shape(), []int{2, 2}) {
		t.Fatal("Stack")
	}
	us, err := Unstack(Alloc, s)
	if err != nil || !equal(us[0], a) || !equal(us[1], b) {
		t.Fatal("Unstack roundtrip")
	}
}

func TestGather(t *testing.T) {
	tbl := FromFloats([]float64{0, 0, 1, 1, 2, 2}, 3, 2)
	ix := FromInts([]int64{2, 0}, 2)
	g, err := Gather(tbl, ix)
	if err != nil {
		t.Fatal(err)
	}
	want := FromFloats([]float64{2, 2, 0, 0}, 2, 2)
	if !equal(g, want) {
		t.Fatalf("got %v", g)
	}
	if _, err := Gather(tbl, FromInts([]int64{5}, 1)); err == nil {
		t.Fatal("expected range error")
	}
}

func TestScatterAddRows(t *testing.T) {
	dst := Zeros(3, 2)
	ix := FromInts([]int64{1, 1}, 2)
	up := FromFloats([]float64{1, 2, 10, 20}, 2, 2)
	if err := ScatterAddRows(dst, ix, up); err != nil {
		t.Fatal(err)
	}
	if dst.F[2] != 11 || dst.F[3] != 22 || dst.F[0] != 0 {
		t.Fatalf("got %v", dst)
	}
}

func TestSliceRows(t *testing.T) {
	a, _ := arange(0, 6).Reshape(3, 2)
	s, err := SliceRows(a, 1, 2)
	if err != nil || !ShapeEq(s.Shape(), []int{2, 2}) || s.I[0] != 2 {
		t.Fatalf("SliceRows got %v err %v", s, err)
	}
	if _, err := SliceRows(a, 2, 2); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestExpandSqueeze(t *testing.T) {
	a := Zeros(2, 3)
	e, err := ExpandDims(a, 1)
	if err != nil || !ShapeEq(e.Shape(), []int{2, 1, 3}) {
		t.Fatal("ExpandDims")
	}
	sq, err := Squeeze(e)
	if err != nil || !ShapeEq(sq.Shape(), []int{2, 3}) {
		t.Fatal("Squeeze")
	}
	if _, err := Squeeze(a, 0); err == nil {
		t.Fatal("expected squeeze error on non-1 dim")
	}
}

func TestTileOneHot(t *testing.T) {
	a := FromFloats([]float64{1, 2}, 2)
	tl, err := Tile(a, 3)
	if err != nil || tl.Size() != 6 || tl.F[4] != 1 {
		t.Fatalf("Tile got %v", tl)
	}
	oh, err := OneHot(FromInts([]int64{1, 0}, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := FromFloats([]float64{0, 1, 0, 1, 0, 0}, 2, 3)
	if !equal(oh, want) {
		t.Fatalf("OneHot got %v", oh)
	}
}

func TestShapeRankSizeTensors(t *testing.T) {
	a := Zeros(2, 5)
	if s := ShapeTensor(a); s.I[0] != 2 || s.I[1] != 5 {
		t.Fatal("ShapeTensor")
	}
	if SizeTensor(a).ScalarIntValue() != 10 {
		t.Fatal("SizeTensor")
	}
	if RankTensor(a).ScalarIntValue() != 2 {
		t.Fatal("RankTensor")
	}
}

func TestCast(t *testing.T) {
	f := FromFloats([]float64{1.7, 0}, 2)
	i, err := Cast(f, Int)
	if err != nil || i.I[0] != 1 {
		t.Fatal("float->int")
	}
	b, err := Cast(f, Bool)
	if err != nil || !b.B[0] || b.B[1] {
		t.Fatal("float->bool")
	}
	f2, err := Cast(b, Float)
	if err != nil || f2.F[0] != 1 || f2.F[1] != 0 {
		t.Fatal("bool->float")
	}
	if _, err := Cast(FromStrings([]string{"x"}, 1), Float); err == nil {
		t.Fatal("expected string cast error")
	}
}

func TestBroadcastToUnbroadcast(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3}, 3)
	b, err := BroadcastTo(a, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if b.F[1*3+2] != 3 {
		t.Fatalf("BroadcastTo got %v", b)
	}
	back, err := UnbroadcastTo(b, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if !equal(back, FromFloats([]float64{2, 4, 6}, 3)) {
		t.Fatalf("UnbroadcastTo got %v", back)
	}
	if _, err := BroadcastTo(Zeros(3), []int{4}); err == nil {
		t.Fatal("expected broadcast error")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := RandNormal(NewRNG(42), 0, 1, 10)
	b := RandNormal(NewRNG(42), 0, 1, 10)
	if !equal(a, b) {
		t.Fatal("RNG not deterministic")
	}
	c := RandNormal(NewRNG(43), 0, 1, 10)
	if equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestRandUniformRange(t *testing.T) {
	u := RandUniform(NewRNG(7), -2, 3, 1000)
	for _, v := range u.F {
		if v < -2 || v >= 3 {
			t.Fatalf("out of range: %v", v)
		}
	}
}

func TestNumBytes(t *testing.T) {
	if Zeros(4).NumBytes() != 32 {
		t.Fatal("float bytes")
	}
	if New(Bool, 4).NumBytes() != 4 {
		t.Fatal("bool bytes")
	}
}

// --- Property-based tests ---

func smallShape(a, b byte) (int, int) { return int(a%4) + 1, int(b%4) + 1 }

func TestPropAddCommutative(t *testing.T) {
	f := func(xs, ys [6]float64) bool {
		a := FromFloats(xs[:], 2, 3)
		b := FromFloats(ys[:], 2, 3)
		ab, _ := Add(a, b)
		ba, _ := Add(b, a)
		return equal(ab, ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddZeroIdentity(t *testing.T) {
	f := func(xs [8]float64) bool {
		a := FromFloats(xs[:], 2, 4)
		r, _ := Add(a, ZerosLike(a))
		return equal(r, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(xs [12]float64) bool {
		a := FromFloats(xs[:], 3, 4)
		at, _ := Transpose(a)
		att, _ := Transpose(at)
		return equal(att, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulDistributes(t *testing.T) {
	f := func(xs, ys, zs [4]float64) bool {
		a := FromFloats(xs[:], 2, 2)
		b := FromFloats(ys[:], 2, 2)
		c := FromFloats(zs[:], 2, 2)
		bc, _ := Add(b, c)
		l, _ := MatMul(a, bc)
		ab, _ := MatMul(a, b)
		ac, _ := MatMul(a, c)
		r, _ := Add(ab, ac)
		return allClose(l, r, 1e-6*(1+absMax(l)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func absMax(t *Tensor) float64 {
	m := 0.0
	for _, v := range t.F {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

func TestPropStackUnstackRoundtrip(t *testing.T) {
	f := func(xs [6]float64, ys [6]float64) bool {
		a := FromFloats(xs[:], 2, 3)
		b := FromFloats(ys[:], 2, 3)
		s, err := Stack(New, a, b)
		if err != nil {
			return false
		}
		us, err := Unstack(Alloc, s)
		if err != nil {
			return false
		}
		return equal(us[0], a) && equal(us[1], b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnbroadcastInvertsBroadcastShape(t *testing.T) {
	f := func(xs [3]float64, rep byte) bool {
		n := int(rep%3) + 1
		a := FromFloats(xs[:], 3)
		b, err := BroadcastTo(a, []int{n, 3})
		if err != nil {
			return false
		}
		back, err := UnbroadcastTo(b, []int{3})
		if err != nil {
			return false
		}
		scaled, _ := Mul(a, Scalar(float64(n)))
		return allClose(back, scaled, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSoftmaxRowsSumToOne(t *testing.T) {
	f := func(xs [8]float64) bool {
		for i, v := range xs {
			if v > 100 {
				xs[i] = 100
			}
			if v < -100 {
				xs[i] = -100
			}
		}
		a := FromFloats(xs[:], 2, 4)
		s, err := Softmax(a)
		if err != nil {
			return false
		}
		sum, _ := ReduceSum(s, []int{1}, false)
		return allClose(sum, Full(1, 2), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// equal reports whether a and b have one dtype, one shape and the same
// elements.
func equal(a, b *Tensor) bool {
	return a.dtype == b.dtype && slices.Equal(a.shape, b.shape) &&
		slices.Equal(a.F, b.F) && slices.Equal(a.I, b.I) && slices.Equal(a.B, b.B) && slices.Equal(a.S, b.S)
}

// allClose reports whether float tensors a and b have one shape and differ
// by no more than tol in any element. A NaN difference, as the property
// tests' overflowing inputs produce, is not more than tol.
func allClose(a, b *Tensor, tol float64) bool {
	return a.dtype == Float && b.dtype == Float && slices.Equal(a.shape, b.shape) &&
		slices.EqualFunc(a.F, b.F, func(x, y float64) bool { return !(math.Abs(x-y) > tol) })
}

// arange returns the 1-D int tensor [start, stop).
func arange(start, stop int64) *Tensor {
	t := New(Int, int(stop-start))
	for i := range t.I {
		t.I[i] = start + int64(i)
	}
	return t
}
