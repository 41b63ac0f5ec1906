package optimize

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func run1(t *testing.T, b *core.Builder, out graph.Output) *tensor.Tensor {
	t.Helper()
	v, err := fetch1(core.NewSession(b), nil, out)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFoldConstantChain(t *testing.T) {
	b := core.NewBuilder()
	// (2+3)*4 is fully constant; x+const is not.
	c := b.Mul(b.Add(b.Scalar(2), b.Scalar(3)), b.Scalar(4))
	x := b.Placeholder("x")
	out := b.Add(x, c)
	st, err := FoldConstants(b.G)
	if err != nil {
		t.Fatal(err)
	}
	if st.Folded < 2 {
		t.Fatalf("folded %d, want >=2 (Add and Mul)", st.Folded)
	}
	// The consumer must now read a Const directly.
	if op := out.Node.Input(1).Node.Op(); op != "Const" {
		t.Fatalf("consumer input is %s, want Const", op)
	}
	v, err := fetch1(core.NewSession(b), map[string]*tensor.Tensor{"x": tensor.Scalar(1)}, out)
	if err != nil {
		t.Fatal(err)
	}
	if v.ScalarValue() != 21 {
		t.Fatalf("got %v", v)
	}
}

func TestFoldSkipsStatefulAndControlFlow(t *testing.T) {
	b := core.NewBuilder()
	r := b.Op("RandomUniform", map[string]any{"shape": []int{2}})
	outs := b.While(
		[]graph.Output{b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
		func(v []graph.Output) []graph.Output { return []graph.Output{b.Add(v[0], b.Scalar(1))} },
		core.WhileOpts{},
	)
	before := b.G.NumNodes()
	if _, err := FoldConstants(b.G); err != nil {
		t.Fatal(err)
	}
	// Loop machinery must be untouched; Random must not fold. (Folding
	// adds Const nodes but never rewires stateful/loop internals.)
	if got := run1(t, b, outs[0]); got.ScalarValue() != 3 {
		t.Fatalf("loop broken by folding: %v", got)
	}
	_ = r
	_ = before
}

func TestFoldInsideLoopBodyIsSkipped(t *testing.T) {
	// A Const+Const inside a loop body has a context; folding must leave
	// it alone (it is pivot-guarded, executing once per iteration).
	b := core.NewBuilder()
	outs := b.While(
		[]graph.Output{b.Scalar(0)},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(4)) },
		func(v []graph.Output) []graph.Output {
			step := b.Add(b.Scalar(0.5), b.Scalar(0.5)) // in-body constant expr
			return []graph.Output{b.Add(v[0], step)}
		},
		core.WhileOpts{},
	)
	if _, err := FoldConstants(b.G); err != nil {
		t.Fatal(err)
	}
	if got := run1(t, b, outs[0]); got.ScalarValue() != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestCSEDeduplicates(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	a1 := b.Op("Square", nil, x)
	a2 := b.Op("Square", nil, x) // identical
	out := b.Add(a1, a2)
	st, err := CSE(b.G)
	if err != nil {
		t.Fatal(err)
	}
	if st.CSE != 1 {
		t.Fatalf("cse %d, want 1", st.CSE)
	}
	if out.Node.Input(0) != out.Node.Input(1) {
		t.Fatal("consumers not rewired to one node")
	}
	v, err := fetch1(core.NewSession(b), map[string]*tensor.Tensor{"x": tensor.Scalar(3)}, out)
	if err != nil {
		t.Fatal(err)
	}
	if v.ScalarValue() != 18 {
		t.Fatalf("got %v", v)
	}
}

func TestCSERespectsAttrsAndContext(t *testing.T) {
	b := core.NewBuilder()
	x := b.Placeholder("x")
	s0 := b.ReduceSum(x, []int{0}, false)
	s1 := b.ReduceSum(x, []int{1}, false) // different attrs: keep
	_ = b.Add(s0, s1)
	st, err := CSE(b.G)
	if err != nil {
		t.Fatal(err)
	}
	if st.CSE != 0 {
		t.Fatalf("cse %d, want 0 (different axes)", st.CSE)
	}
}

func TestCSESkipsStateful(t *testing.T) {
	b := core.NewBuilder()
	r1 := b.Op("RandomUniform", map[string]any{"shape": []int{1}})
	r2 := b.Op("RandomUniform", map[string]any{"shape": []int{1}})
	_ = b.Add(r1, r2)
	st, err := CSE(b.G)
	if err != nil {
		t.Fatal(err)
	}
	if st.CSE != 0 {
		t.Fatalf("stateful ops merged: %d", st.CSE)
	}
}

func TestOptimizePreservesGradientResults(t *testing.T) {
	build := func() (*core.Builder, graph.Output, graph.Output) {
		b := core.NewBuilder()
		x := b.Placeholder("x")
		w := b.Mul(b.Scalar(2), b.Scalar(3)) // foldable
		y := b.ReduceSum(b.Mul(b.Op("Square", nil, x), w), nil, false)
		return b, x, y
	}
	b1, _, y1 := build()
	v1, err := fetch1(core.NewSession(b1), map[string]*tensor.Tensor{"x": tensor.FromFloats([]float64{1, 2}, 2)}, y1)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, y2 := build()
	if _, err := Optimize(b2.G); err != nil {
		t.Fatal(err)
	}
	v2, err := fetch1(core.NewSession(b2), map[string]*tensor.Tensor{"x": tensor.FromFloats([]float64{1, 2}, 2)}, y2)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(v1, v2, 1e-12) {
		t.Fatalf("optimization changed results: %v vs %v", v1, v2)
	}
}

func TestOptimizeWholeLSTMGraphStaysCorrect(t *testing.T) {
	// End-to-end safety net: a realistic graph (loop + gradients) must
	// compute identical results before and after optimization.
	build := func() (*core.Builder, graph.Output) {
		b := core.NewBuilder()
		x := b.Placeholder("x")
		w := b.Const(tensor.FromFloats([]float64{0.5, 0.1, -0.2, 0.8}, 2, 2))
		outs := b.While(
			[]graph.Output{b.Scalar(0), x},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
			func(v []graph.Output) []graph.Output {
				return []graph.Output{b.Add(v[0], b.Scalar(1)), b.Tanh(b.MatMul(v[1], w))}
			},
			core.WhileOpts{},
		)
		return b, b.ReduceSum(outs[1], nil, false)
	}
	feed := map[string]*tensor.Tensor{"x": tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2)}
	b1, y1 := build()
	v1, err := fetch1(core.NewSession(b1), feed, y1)
	if err != nil {
		t.Fatal(err)
	}
	b2, y2 := build()
	st, err := Optimize(b2.G)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := fetch1(core.NewSession(b2), feed, y2)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(v1, v2, 1e-12) {
		t.Fatalf("optimize changed loop results (stats %+v): %v vs %v", st, v1, v2)
	}
}

func opCount(b *core.Builder, fetch graph.Output, op string) int {
	// Count the nodes of one op type a fetch of `fetch` would execute.
	seen, n := map[int]bool{}, 0
	var visit func(*graph.Node)
	visit = func(nd *graph.Node) {
		if seen[nd.ID()] {
			return
		}
		seen[nd.ID()] = true
		if nd.Op() == op {
			n++
		}
		for _, in := range nd.InputsRef() {
			visit(in.Node)
		}
	}
	visit(fetch.Node)
	return n
}

func TestOptimizeFoldsTransposesIntoMatMul(t *testing.T) {
	rng := tensor.NewRNG(4)
	feeds := map[string]*tensor.Tensor{
		"x": tensor.RandNormal(rng, 0, 1, 3, 2), // stored transposed: used as [2,3]
		"y": tensor.RandNormal(rng, 0, 1, 4, 3), // stored transposed: used as [3,4]
		"z": tensor.RandNormal(rng, 0, 1, 2, 3),
	}
	b := core.NewBuilder()
	x, y, z := b.Placeholder("x"), b.Placeholder("y"), b.Placeholder("z")
	xt, yt := b.Transpose(x), b.Transpose(y, 1, 0)
	both := b.MatMul(xt, yt)                           // aᵀ·bᵀ
	twice := b.MatMul(b.Transpose(b.Transpose(z)), yt) // a transpose of a transpose cancels
	shared := b.MatMul(xt, x)                          // xt has more consumers below
	keep := b.ReduceSum(xt, nil, false)
	outs := []graph.Output{both, twice, shared, keep, xt}

	sess := core.NewSession(b)
	var before []*tensor.Tensor
	for _, o := range outs {
		v, err := fetch1(sess, feeds, o)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, v)
	}
	st, err := Optimize(b.G)
	if err != nil {
		t.Fatal(err)
	}
	// both: 2, twice: 2 + 1, shared: 1.
	if st.Transposes != 6 {
		t.Errorf("Stats.Transposes = %d, want 6", st.Transposes)
	}
	for i, o := range outs[:3] {
		if n := opCount(b, o, "Transpose"); n != 0 {
			t.Errorf("output %d still executes %d Transpose nodes", i, n)
		}
	}
	if !both.Node.AttrBool("transpose_a") || !both.Node.AttrBool("transpose_b") {
		t.Errorf("MatMul(xᵀ, yᵀ) attrs: %v", both.Node.AttrsMap())
	}
	if twice.Node.AttrBool("transpose_a") || twice.Node.Input(0) != z {
		t.Errorf("MatMul((zᵀ)ᵀ, ·) should read z untransposed: attrs %v, input %v", twice.Node.AttrsMap(), twice.Node.Input(0))
	}
	// The Transpose with a second consumer, and a fetch naming it, still work.
	if n := opCount(b, keep, "Transpose"); n != 1 {
		t.Errorf("the Transpose's other consumer executes %d Transpose nodes, want 1", n)
	}
	sess = core.NewSession(b)
	for i, o := range outs {
		v, err := fetch1(sess, feeds, o)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(v, before[i]) {
			t.Errorf("output %d changed: %v, was %v", i, v, before[i])
		}
	}
	if st2, _ := Optimize(b.G); st2.Transposes != 0 {
		t.Errorf("a second Optimize folded %d more transposes", st2.Transposes)
	}
}

func TestFoldTransposesLeavesWhatItCannotRead(t *testing.T) {
	b := core.NewBuilder()
	x, w := b.Placeholder("x"), b.Placeholder("w")
	// A batched swap of the last two axes is not the plain matrix transpose.
	batched := b.MatMul(b.Transpose(x, 0, 2, 1), x)
	// A transpose outside a loop feeding a MatMul inside it reaches the
	// MatMul through an Enter: a different context, not folded.
	wt := b.Transpose(w)
	outs := b.While(
		[]graph.Output{b.Scalar(0), b.Placeholder("h")},
		func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(2)) },
		func(v []graph.Output) []graph.Output {
			// One inside the body is in the MatMul's own context: folded.
			return []graph.Output{b.Add(v[0], b.Scalar(1)), b.MatMul(b.MatMul(v[1], wt), b.Transpose(v[1]))}
		},
		core.WhileOpts{},
	)
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	feeds := map[string]*tensor.Tensor{
		"x": tensor.Ones(2, 3, 3), "w": tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2),
		"h": tensor.FromFloats([]float64{.1, .2, .3, .4}, 2, 2),
	}
	want, err := fetch1(core.NewSession(b), feeds, outs[1])
	if err != nil {
		t.Fatal(err)
	}
	if n := foldTransposes(b.G); n != 1 {
		t.Errorf("folded %d transposes, want 1 (the one inside the loop body)", n)
	}
	if batched.Node.Input(0).Node.Op() != "Transpose" {
		t.Error("a perm (0,2,1) Transpose was folded")
	}
	got, err := fetch1(core.NewSession(b), feeds, outs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Errorf("loop result changed: %v, was %v", got, want)
	}
}

// fetch1 runs the step that fetches one output.
func fetch1(s *core.Session, feeds map[string]*tensor.Tensor, fetch graph.Output) (*tensor.Tensor, error) {
	out, err := s.Run(feeds, []graph.Output{fetch}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
