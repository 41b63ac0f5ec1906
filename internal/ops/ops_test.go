package ops

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// fakeEnv implements Env for kernel-level tests.
type fakeEnv struct {
	feeds map[string]*tensor.Tensor
	step  *Resources
	sess  *Resources
	rng   *tensor.RNG
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		feeds: map[string]*tensor.Tensor{},
		step:  NewResources(),
		sess:  NewResources(),
		rng:   tensor.NewRNG(1),
	}
}

func (e *fakeEnv) Feed(name string) (*tensor.Tensor, bool) { t, ok := e.feeds[name]; return t, ok }
func (e *fakeEnv) StepRes() *Resources                     { return e.step }
func (e *fakeEnv) SessionRes() *Resources                  { return e.sess }
func (e *fakeEnv) RNG() *tensor.RNG                        { return e.rng }

func runKernel(t *testing.T, op string, attrs map[string]any, ins ...Value) []Value {
	t.Helper()
	def := mustGet(op)
	out, err := def.Kernel(&KernelContext{
		OpName: op, NodeName: op, Attrs: attrs, In: ins, Env: newFakeEnv(),
	})
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return out
}

func TV(t *tensor.Tensor) Value { return TensorVal(t) }

func TestRegistryLookup(t *testing.T) {
	if _, err := Get("MatMul"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("NoSuchOp"); err == nil {
		t.Fatal("expected unknown-op error")
	}
	if len(registry) < 40 {
		t.Fatalf("registry suspiciously small: %d ops", len(registry))
	}
}

func TestOutputArity(t *testing.T) {
	if n, _ := OutputArity("Switch", nil); n != 2 {
		t.Fatalf("Switch arity %d", n)
	}
	if n, _ := OutputArity("Unpack", map[string]any{"num": 5}); n != 5 {
		t.Fatalf("Unpack arity %d", n)
	}
}

func TestMathKernels(t *testing.T) {
	out := runKernel(t, "Add", nil, TV(tensor.Scalar(2)), TV(tensor.Scalar(3)))
	if out[0].T.ScalarValue() != 5 {
		t.Fatal("Add kernel")
	}
	out = runKernel(t, "MatMul", nil,
		TV(tensor.Eye(2)), TV(tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2)))
	if !equal(out[0].T, tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2)) {
		t.Fatal("MatMul kernel")
	}
	out = runKernel(t, "Sum", map[string]any{"axes": []int{0}}, TV(tensor.Full(1, 3, 2)))
	if !equal(out[0].T, tensor.FromFloats([]float64{3, 3}, 2)) {
		t.Fatal("Sum kernel")
	}
}

func TestKernelErrorsAreInformative(t *testing.T) {
	def := mustGet("MatMul")
	_, err := def.Kernel(&KernelContext{
		OpName: "MatMul", NodeName: "mm", Attrs: nil,
		In:  []Value{TV(tensor.Zeros(2, 3)), TV(tensor.Zeros(2, 3))},
		Env: newFakeEnv(),
	})
	if err == nil || !strings.Contains(err.Error(), "MatMul") {
		t.Fatalf("want shape error, got %v", err)
	}
}

func TestConstAndPlaceholderKernels(t *testing.T) {
	out := runKernel(t, "Const", map[string]any{"value": tensor.Scalar(9)})
	if out[0].T.ScalarValue() != 9 {
		t.Fatal("Const")
	}
	env := newFakeEnv()
	env.feeds["x"] = tensor.Scalar(4)
	def := mustGet("Placeholder")
	out2, err := def.Kernel(&KernelContext{OpName: "Placeholder", NodeName: "x", Env: env})
	if err != nil || out2[0].T.ScalarValue() != 4 {
		t.Fatalf("Placeholder: %v %v", out2, err)
	}
	if _, err := def.Kernel(&KernelContext{OpName: "Placeholder", NodeName: "unfed", Env: env}); err == nil {
		t.Fatal("expected unfed error")
	}
}

func TestVariableKernels(t *testing.T) {
	env := newFakeEnv()
	assign := mustGet("Assign")
	if _, err := assign.Kernel(&KernelContext{
		OpName: "Assign", NodeName: "a", Attrs: map[string]any{"var": "v"},
		In: []Value{TV(tensor.Scalar(10))}, Env: env,
	}); err != nil {
		t.Fatal(err)
	}
	read := mustGet("VarRead")
	out, err := read.Kernel(&KernelContext{
		OpName: "VarRead", NodeName: "r", Attrs: map[string]any{"var": "v"}, Env: env,
	})
	if err != nil || out[0].T.ScalarValue() != 10 {
		t.Fatalf("VarRead: %v %v", out, err)
	}
	addk := mustGet("AssignAdd")
	if _, err := addk.Kernel(&KernelContext{
		OpName: "AssignAdd", NodeName: "aa", Attrs: map[string]any{"var": "v"},
		In: []Value{TV(tensor.Scalar(5))}, Env: env,
	}); err != nil {
		t.Fatal(err)
	}
	out, _ = read.Kernel(&KernelContext{
		OpName: "VarRead", NodeName: "r", Attrs: map[string]any{"var": "v"}, Env: env,
	})
	if out[0].T.ScalarValue() != 15 {
		t.Fatalf("AssignAdd result %v", out[0].T)
	}
	// Uninitialized read fails.
	if _, err := read.Kernel(&KernelContext{
		OpName: "VarRead", NodeName: "r", Attrs: map[string]any{"var": "nope"}, Env: env,
	}); err == nil {
		t.Fatal("expected uninitialized error")
	}
}

func TestApplyGradientDescentKernel(t *testing.T) {
	env := newFakeEnv()
	mustGet("Assign").Kernel(&KernelContext{
		OpName: "Assign", NodeName: "a", Attrs: map[string]any{"var": "w"},
		In: []Value{TV(tensor.FromFloats([]float64{1, 2}, 2))}, Env: env,
	})
	out, err := mustGet("ApplyGradientDescent").Kernel(&KernelContext{
		OpName: "ApplyGradientDescent", NodeName: "sgd", Attrs: map[string]any{"var": "w"},
		In:  []Value{TV(tensor.FromFloats([]float64{1, 1}, 2)), TV(tensor.Scalar(0.5))},
		Env: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !equal(out[0].T, tensor.FromFloats([]float64{0.5, 1.5}, 2)) {
		t.Fatalf("got %v", out[0].T)
	}
}

func TestScatterKernels(t *testing.T) {
	env := newFakeEnv()
	mustGet("Assign").Kernel(&KernelContext{
		OpName: "Assign", NodeName: "a", Attrs: map[string]any{"var": "tbl"},
		In: []Value{TV(tensor.Zeros(3, 2))}, Env: env,
	})
	_, err := mustGet("ScatterUpdateVar").Kernel(&KernelContext{
		OpName: "ScatterUpdateVar", NodeName: "s", Attrs: map[string]any{"var": "tbl"},
		In: []Value{
			TV(tensor.FromInts([]int64{1}, 1)),
			TV(tensor.FromFloats([]float64{7, 8}, 1, 2)),
		},
		Env: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := mustGet("VarRead").Kernel(&KernelContext{
		OpName: "VarRead", NodeName: "r", Attrs: map[string]any{"var": "tbl"}, Env: env,
	})
	if f := out[0].T.F; f[2] != 7 || f[3] != 8 || f[0] != 0 { // [3,2], row 1 scattered
		t.Fatalf("scatter result %v", out[0].T)
	}
	// Out-of-range index errors.
	_, err = mustGet("ScatterUpdateVar").Kernel(&KernelContext{
		OpName: "ScatterUpdateVar", NodeName: "s", Attrs: map[string]any{"var": "tbl"},
		In: []Value{
			TV(tensor.FromInts([]int64{5}, 1)),
			TV(tensor.FromFloats([]float64{7, 8}, 1, 2)),
		},
		Env: env,
	})
	if err == nil {
		t.Fatal("expected range error")
	}
}

func TestSumGradKernel(t *testing.T) {
	// Sum over axis 1 of [2,3], keep_dims=false: grad [2] spreads to [2,3].
	out := runKernel(t, "SumGrad", map[string]any{"axes": []int{1}, "keep_dims": false},
		TV(tensor.FromFloats([]float64{10, 20}, 2)),
		TV(tensor.FromInts([]int64{2, 3}, 2)))
	want := tensor.FromFloats([]float64{10, 10, 10, 20, 20, 20}, 2, 3)
	if !equal(out[0].T, want) {
		t.Fatalf("got %v want %v", out[0].T, want)
	}
}

func TestSliceAxisAndGradKernels(t *testing.T) {
	x := tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	out := runKernel(t, "SliceAxis", map[string]any{"axis": 1},
		TV(x), TV(tensor.ScalarInt(1)), TV(tensor.ScalarInt(2)))
	want := tensor.FromFloats([]float64{2, 3, 5, 6}, 2, 2)
	if !equal(out[0].T, want) {
		t.Fatalf("SliceAxis got %v", out[0].T)
	}
	back := runKernel(t, "SliceAxisGrad", map[string]any{"axis": 1},
		TV(want), TV(x), TV(tensor.ScalarInt(1)))
	wantG := tensor.FromFloats([]float64{0, 2, 3, 0, 5, 6}, 2, 3)
	if !equal(back[0].T, wantG) {
		t.Fatalf("SliceAxisGrad got %v", back[0].T)
	}
}

func TestGatherGradKernel(t *testing.T) {
	out := runKernel(t, "GatherGrad", nil,
		TV(tensor.FromInts([]int64{1, 1}, 2)),
		TV(tensor.FromFloats([]float64{1, 2, 10, 20}, 2, 2)),
		TV(tensor.FromInts([]int64{3, 2}, 2)))
	if f := out[0].T.F; f[2] != 11 || f[3] != 22 { // [3,2], row 1 accumulated
		t.Fatalf("got %v", out[0].T)
	}
}

func TestResourcesContainer(t *testing.T) {
	r := NewResources()
	calls := 0
	mk := func() Resource { calls++; return &VariableRes{name: "x"} }
	a := r.LookupOrCreate("k", mk)
	b := r.LookupOrCreate("k", mk)
	if a != b || calls != 1 {
		t.Fatal("LookupOrCreate must cache")
	}
	if _, ok := r.Lookup("k"); !ok {
		t.Fatal("Lookup")
	}
}

func TestValueAccessors(t *testing.T) {
	v := TensorVal(tensor.Scalar(1))
	if _, err := v.Tensor(); err != nil {
		t.Fatal(err)
	}
	rv := ResourceVal(&VariableRes{name: "r"})
	if _, err := rv.Tensor(); err == nil {
		t.Fatal("resource as tensor must fail")
	}
	if !strings.Contains(rv.String(), "resource") {
		t.Fatalf("String: %s", rv.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register(&OpDef{Name: "Add"})
}

func TestRandomKernelsRespectShape(t *testing.T) {
	out := runKernel(t, "RandomUniform", map[string]any{"shape": []int{2, 3}})
	if !tensor.ShapeEq(out[0].T.Shape(), []int{2, 3}) {
		t.Fatalf("shape %v", out[0].T.Shape())
	}
	for _, v := range out[0].T.F {
		if v < 0 || v >= 1 {
			t.Fatalf("out of range %v", v)
		}
	}
}

// matMulKernel is the MatMul op's old kernel, which multiplied its operands
// as stored whatever the node's attrs said; with explicit transposes in front
// it is the reference for the attr-honouring kernel.
func matMulKernel(a, b *tensor.Tensor) (*tensor.Tensor, error) { return tensor.MatMul(a, b) }

func TestMatMulHonoursTransposeAttrs(t *testing.T) {
	rng := tensor.NewRNG(3)
	for _, batch := range [][]int{nil, {2}} {
		a := tensor.RandNormal(rng, 0, 1, append(append([]int(nil), batch...), 3, 5)...)
		b := tensor.RandNormal(rng, 0, 1, append(append([]int(nil), batch...), 5, 4)...)
		want, err := matMulKernel(a, b)
		if err != nil {
			t.Fatal(err)
		}
		perm := []int{1, 0}
		if batch != nil {
			perm = []int{0, 2, 1}
		}
		at, _ := tensor.Transpose(a, perm...)
		bt, _ := tensor.Transpose(b, perm...)
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				x, y := a, b
				if ta {
					x = at
				}
				if tb {
					y = bt
				}
				out := runKernel(t, "MatMul", map[string]any{"transpose_a": ta, "transpose_b": tb}, TV(x), TV(y))
				if !allClose(out[0].T, want, 1e-12) {
					t.Errorf("MatMul %v x %v (transpose_a %v, transpose_b %v) = %v, want %v",
						x.Shape(), y.Shape(), ta, tb, out[0].T, want)
				}
			}
		}
	}
}

// TestReshapeAndUnbroadcastForward: a granted input buffer is the output —
// handed on as it is or re-shaped in place — and a borrowed one is copied and
// left alone.
func TestReshapeAndUnbroadcastForward(t *testing.T) {
	cases := []struct {
		op    string
		attrs map[string]any
		extra *tensor.Tensor // second input, if any
		want  []int
	}{
		{"Reshape", map[string]any{"shape": []int{3, -1}}, nil, []int{3, 2}},
		{"Reshape", nil, tensor.FromInts([]int64{6}, 1), []int{6}},
		{"UnbroadcastTo", nil, tensor.FromInts([]int64{2, 3}, 2), []int{2, 3}},
	}
	for _, c := range cases {
		for _, owned := range []bool{false, true} {
			x := tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
			ctx := &KernelContext{OpName: c.op, NodeName: c.op, Attrs: c.attrs, In: []Value{TV(x)}, Env: newFakeEnv()}
			if c.extra != nil {
				ctx.In = append(ctx.In, TV(c.extra))
			}
			if owned {
				ctx.FwdMask = 1
			}
			out, err := mustGet(c.op).Kernel(ctx)
			if err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
			got := out[0].T
			if (got == x) != owned {
				t.Errorf("%s owned %v: output is the input tensor: %v", c.op, owned, got == x)
			}
			if !tensor.ShapeEq(got.ShapeRef(), c.want) || !slices.Equal(got.F, []float64{1, 2, 3, 4, 5, 6}) {
				t.Errorf("%s owned %v: got %v, want shape %v", c.op, owned, got, c.want)
			}
			if !owned && !tensor.ShapeEq(x.ShapeRef(), []int{2, 3}) {
				t.Errorf("%s re-shaped a borrowed input to %v", c.op, x.ShapeRef())
			}
		}
	}
	// A sum cannot be forwarded: the owned input stays the executor's to
	// recycle and the result is a tensor of its own.
	x := tensor.Full(1, 2, 3)
	ctx := &KernelContext{OpName: "UnbroadcastTo", In: []Value{TV(x), TV(tensor.FromInts([]int64{3}, 1))}, FwdMask: 1, Env: newFakeEnv()}
	out, err := mustGet("UnbroadcastTo").Kernel(ctx)
	if err != nil || out[0].T == x || !equal(out[0].T, tensor.FromFloats([]float64{2, 2, 2}, 3)) {
		t.Errorf("UnbroadcastTo [2,3] -> [3]: %v, %v", out, err)
	}
}

// mustGet returns a registered op's definition.
func mustGet(name string) *OpDef {
	def, err := Get(name)
	if err != nil {
		panic(err)
	}
	return def
}

// equal reports whether a and b have one dtype, one shape and the same
// elements.
func equal(a, b *tensor.Tensor) bool {
	return a.DType() == b.DType() && slices.Equal(a.Shape(), b.Shape()) &&
		slices.Equal(a.F, b.F) && slices.Equal(a.I, b.I) && slices.Equal(a.B, b.B) && slices.Equal(a.S, b.S)
}

// allClose reports whether float tensors a and b have one shape and differ
// by at most tol in every element.
func allClose(a, b *tensor.Tensor, tol float64) bool {
	return a.DType() == tensor.Float && b.DType() == tensor.Float && slices.Equal(a.Shape(), b.Shape()) &&
		slices.EqualFunc(a.F, b.F, func(x, y float64) bool { return math.Abs(x-y) <= tol })
}
