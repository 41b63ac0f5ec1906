package nn

import (
	"testing"

	"repro/dcf"
)

func sess(t *testing.T, g *dcf.Graph) *dcf.Session {
	t.Helper()
	s := dcf.NewSession(g)
	if err := s.InitVariables(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDenseForward(t *testing.T) {
	g := dcf.NewGraph()
	d := NewDense(g, "fc", 3, 2, nil, 1)
	x := g.Placeholder("x")
	y := d.Apply(x)
	s := sess(t, g)
	out, err := s.Run1(dcf.Feeds{"x": dcf.Ones(4, 3)}, y)
	if err != nil {
		t.Fatal(err)
	}
	if sh := out.Shape(); sh[0] != 4 || sh[1] != 2 {
		t.Fatalf("shape %v", sh)
	}
	if len(d.Vars.Names) != 2 {
		t.Fatalf("vars %v", d.Vars.Names)
	}
}

func TestLSTMStepShapes(t *testing.T) {
	g := dcf.NewGraph()
	cell := NewLSTMCell(g, "lstm", 5, 7, 1)
	x := g.Placeholder("x")
	h0 := g.Const(dcf.Zeros(3, 7))
	c0 := g.Const(dcf.Zeros(3, 7))
	h1, c1 := cell.Step(x, h0, c0)
	s := sess(t, g)
	out, err := s.Run(dcf.Feeds{"x": dcf.RandNormal(3, 0, 1, 3, 5)}, []dcf.Tensor{h1, c1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if sh := o.Shape(); sh[0] != 3 || sh[1] != 7 {
			t.Fatalf("shape %v", sh)
		}
	}
	// Fresh zero state keeps activations bounded: |h| <= 1.
	for _, v := range out[0].F {
		if v > 1 || v < -1 {
			t.Fatalf("h out of tanh range: %v", v)
		}
	}
}

func TestDynamicRNNMatchesStaticRNN(t *testing.T) {
	// The same cell weights must produce identical outputs whether the
	// recurrence runs as a dynamic while-loop or statically unrolled —
	// the premise behind the paper's §6.3 comparison.
	const T, batch, in, units = 6, 2, 3, 4
	g := dcf.NewGraph()
	cell := NewLSTMCell(g, "lstm", in, units, 9)
	x := g.Placeholder("x")
	h0 := g.Const(dcf.Zeros(batch, units))
	c0 := g.Const(dcf.Zeros(batch, units))
	dyn := DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
	st := StaticRNN(g, cell, x, T, h0, c0)
	s := sess(t, g)
	xv := dcf.RandNormal(4, 0, 1, T, batch, in)
	out, err := s.Run(dcf.Feeds{"x": xv}, []dcf.Tensor{dyn.Outputs, st.Outputs, dyn.FinalH, st.FinalH})
	if err != nil {
		t.Fatal(err)
	}
	if !dcf.AllClose(out[0], out[1], 1e-12) {
		t.Fatal("dynamic and static RNN outputs differ")
	}
	if !dcf.AllClose(out[2], out[3], 1e-12) {
		t.Fatal("final states differ")
	}
}

func TestDynamicRNNHandlesVariableLengths(t *testing.T) {
	// The same graph runs sequences of different lengths — the point of
	// dynamic control flow (static unrolling cannot do this).
	g := dcf.NewGraph()
	cell := NewLSTMCell(g, "lstm", 3, 4, 9)
	x := g.Placeholder("x")
	h0 := g.Const(dcf.Zeros(2, 4))
	c0 := g.Const(dcf.Zeros(2, 4))
	r := DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
	s := sess(t, g)
	for _, T := range []int{1, 5, 17} {
		out, err := s.Run1(dcf.Feeds{"x": dcf.RandNormal(4, 0, 1, T, 2, 3)}, r.Outputs)
		if err != nil {
			t.Fatalf("T=%d: %v", T, err)
		}
		if out.Shape()[0] != T {
			t.Fatalf("T=%d: output shape %v", T, out.Shape())
		}
	}
}

func TestLSTMTrainingReducesLoss(t *testing.T) {
	// End-to-end: train a small LSTM to reproduce a target sequence.
	const T, batch, in, units = 5, 2, 3, 4
	g := dcf.NewGraph()
	cell := NewLSTMCell(g, "lstm", in, units, 5)
	x := g.Placeholder("x")
	target := g.Placeholder("y")
	h0 := g.Const(dcf.Zeros(batch, units))
	c0 := g.Const(dcf.Zeros(batch, units))
	r := DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
	loss := MSE(r.Outputs, target)
	step, err := SGDStep(g, loss, &cell.Vars, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	s := sess(t, g)
	feeds := dcf.Feeds{
		"x": dcf.RandNormal(1, 0, 1, T, batch, in),
		"y": dcf.RandNormal(2, 0, 0.2, T, batch, units),
	}
	first, err := s.Run1(feeds, loss)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := s.RunTargets(feeds, step); err != nil {
			t.Fatal(err)
		}
	}
	last, err := s.Run1(feeds, loss)
	if err != nil {
		t.Fatal(err)
	}
	if last.ScalarValue() >= first.ScalarValue()*0.7 {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
}

func TestMoEExecutesOnlySelectedExpert(t *testing.T) {
	g := dcf.NewGraph()
	m := NewMoE(g, "moe", 4, 3, 4, 7)
	x := g.Placeholder("x")
	y := m.Apply(x)
	s := sess(t, g)
	out, err := s.Run1(dcf.Feeds{"x": dcf.RandNormal(9, 0, 1, 5, 4)}, y)
	if err != nil {
		t.Fatal(err)
	}
	if sh := out.Shape(); sh[0] != 5 || sh[1] != 3 {
		t.Fatalf("shape %v", sh)
	}
	// Routing correctness: the output equals gate_column(sel) *
	// expert_sel(x) computed unconditionally.
	scores := m.Gate.Apply(x).Softmax()
	sel := scores.ReduceMean([]int{0}, false).ArgMax(0)
	var refs []dcf.Tensor
	for e, ex := range m.Experts {
		col := scores.Transpose().SliceRows(g.Int(int64(e)), 1).Transpose()
		refs = append(refs, ex.Apply(x).Mul(col))
	}
	fetches := append([]dcf.Tensor{y, sel.Cast(dcf.Float)}, refs...)
	outAll, err := s.Run(dcf.Feeds{"x": dcf.RandNormal(9, 0, 1, 5, 4)}, fetches)
	if err != nil {
		t.Fatal(err)
	}
	chosen := int(outAll[1].ScalarValue())
	if !dcf.AllClose(outAll[0], outAll[2+chosen], 1e-9) {
		t.Fatalf("MoE output does not match expert %d's gated output", chosen)
	}
}

func TestMoETrains(t *testing.T) {
	g := dcf.NewGraph()
	m := NewMoE(g, "moe", 3, 2, 2, 3)
	x := g.Placeholder("x")
	target := g.Placeholder("y")
	loss := MSE(m.Apply(x), target)
	step, err := SGDStep(g, loss, &m.Vars, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	s := sess(t, g)
	feeds := dcf.Feeds{
		"x": dcf.RandNormal(1, 0, 1, 4, 3),
		"y": dcf.RandNormal(2, 0, 0.3, 4, 2),
	}
	first, err := s.Run1(feeds, loss)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.RunTargets(feeds, step); err != nil {
			t.Fatal(err)
		}
	}
	last, err := s.Run1(feeds, loss)
	if err != nil {
		t.Fatal(err)
	}
	if last.ScalarValue() >= first.ScalarValue() {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	g := dcf.NewGraph()
	logits := g.Placeholder("l")
	labels := g.Placeholder("y")
	loss := SoftmaxCrossEntropy(logits, labels)
	s := dcf.NewSession(g)
	// Perfectly confident correct prediction -> ~0 loss.
	out, err := s.Run1(dcf.Feeds{
		"l": dcf.FromFloats([]float64{100, 0, 0}, 1, 3),
		"y": dcf.FromFloats([]float64{1, 0, 0}, 1, 3),
	}, loss)
	if err != nil {
		t.Fatal(err)
	}
	if out.ScalarValue() > 1e-6 {
		t.Fatalf("confident-correct loss = %v", out)
	}
	// Uniform logits -> log(3).
	out, err = s.Run1(dcf.Feeds{
		"l": dcf.FromFloats([]float64{0, 0, 0}, 1, 3),
		"y": dcf.FromFloats([]float64{0, 1, 0}, 1, 3),
	}, loss)
	if err != nil {
		t.Fatal(err)
	}
	if d := out.ScalarValue() - 1.0986; d > 1e-3 || d < -1e-3 {
		t.Fatalf("uniform loss = %v, want ln 3", out)
	}
}

func TestStaticRNNGradientsTrainToo(t *testing.T) {
	const T, batch, in, units = 4, 2, 3, 3
	g := dcf.NewGraph()
	cell := NewLSTMCell(g, "lstm", in, units, 5)
	x := g.Placeholder("x")
	target := g.Placeholder("y")
	h0 := g.Const(dcf.Zeros(batch, units))
	c0 := g.Const(dcf.Zeros(batch, units))
	r := StaticRNN(g, cell, x, T, h0, c0)
	loss := MSE(r.Outputs, target)
	step, err := SGDStep(g, loss, &cell.Vars, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	s := sess(t, g)
	feeds := dcf.Feeds{
		"x": dcf.RandNormal(1, 0, 1, T, batch, in),
		"y": dcf.RandNormal(2, 0, 0.2, T, batch, units),
	}
	first, _ := s.Run1(feeds, loss)
	for i := 0; i < 20; i++ {
		if err := s.RunTargets(feeds, step); err != nil {
			t.Fatal(err)
		}
	}
	last, _ := s.Run1(feeds, loss)
	if last.ScalarValue() >= first.ScalarValue() {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
}

func TestEmbeddingLookupAndGradient(t *testing.T) {
	g := dcf.NewGraph()
	emb := NewEmbedding(g, "emb", 5, 3, 1)
	ids := g.Const(dcf.FromInts([]int64{2, 2, 4}, 3))
	y := emb.Lookup(ids).Square().ReduceSum()
	grads := g.MustGradients(y, emb.Table)
	s := sess(t, g)
	out, err := s.Run(nil, []dcf.Tensor{y, grads[0]})
	if err != nil {
		t.Fatal(err)
	}
	gr := out[1]
	if sh := gr.Shape(); sh[0] != 5 || sh[1] != 3 {
		t.Fatalf("grad shape %v", sh)
	}
	// Rows 0,1,3 unused -> zero grads; row 2 used twice -> accumulated.
	for _, row := range []int{0, 1, 3} {
		for c := 0; c < 3; c++ {
			if gr.F[row*gr.Dim(1)+c] != 0 {
				t.Fatalf("unused row %d has gradient", row)
			}
		}
	}
	nonzero := false
	for c := 0; c < 3; c++ {
		if gr.F[2*gr.Dim(1)+c] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("used row has no gradient")
	}
}
