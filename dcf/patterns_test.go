package dcf_test

// Tests for the "other usage" patterns of §2.2: in-graph training loops,
// selective (conditional) parameter updates, and checkpointing (§3).

import (
	"path/filepath"
	"testing"

	"repro/dcf"
)

func TestSelectiveUpdatePattern(t *testing.T) {
	// §2.2: "updating model parameters only when updates are sufficiently
	// large". The assign runs inside a cond branch, so small gradients
	// leave the variable untouched.
	g := dcf.NewGraph()
	g.Variable("w", dcf.ScalarVal(1))
	w := g.ReadVariable("w")
	upd := g.Placeholder("update")
	bigEnough := upd.Abs().ReduceSum().Greater(g.Scalar(0.5))
	applied := g.Cond(bigEnough,
		func() []dcf.Tensor { return []dcf.Tensor{g.AssignT("w", w.Sub(upd))} },
		func() []dcf.Tensor { return []dcf.Tensor{w} },
	)[0]

	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	// Small update: skipped.
	if _, err := sess.Run1(dcf.Feeds{"update": dcf.ScalarVal(0.1)}, applied); err != nil {
		t.Fatal(err)
	}
	v, err := sess.Run1(nil, g.ReadVariable("w"))
	if err != nil {
		t.Fatal(err)
	}
	if v.ScalarValue() != 1 {
		t.Fatalf("small update applied: %v", v)
	}
	// Large update: applied.
	if _, err := sess.Run1(dcf.Feeds{"update": dcf.ScalarVal(0.75)}, applied); err != nil {
		t.Fatal(err)
	}
	v, err = sess.Run1(nil, g.ReadVariable("w"))
	if err != nil {
		t.Fatal(err)
	}
	if v.ScalarValue() != 0.25 {
		t.Fatalf("large update result %v", v)
	}
}

func TestInGraphTrainingLoop(t *testing.T) {
	// §2.2: training loops written in-graph — many optimization steps in
	// one Session.Run, with no client synchronization between steps.
	g := dcf.NewGraph()
	target := g.Scalar(4)
	lr := g.Scalar(0.25)
	outs := g.While(
		[]dcf.Tensor{g.Scalar(0), g.Scalar(0)},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(50)) },
		func(v []dcf.Tensor) []dcf.Tensor {
			w := v[1]
			grad := w.Sub(target).Mul(g.Scalar(2))
			return []dcf.Tensor{v[0].Add(g.Scalar(1)), w.Sub(grad.Mul(lr))}
		},
		dcf.WhileOpts{Name: "train"},
	)
	sess := dcf.NewSession(g)
	got, err := sess.Run1(nil, outs[1])
	if err != nil {
		t.Fatal(err)
	}
	if d := got.ScalarValue() - 4; d > 1e-6 || d < -1e-6 {
		t.Fatalf("in-graph training did not converge: %v", got)
	}
}

func TestCheckpointSaveRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")

	// Train a variable, checkpoint it.
	g := dcf.NewGraph()
	g.Variable("w", dcf.ScalarVal(0))
	w := g.ReadVariable("w")
	step := g.Assign("w", w.Add(g.Scalar(1)))
	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sess.RunTargets(nil, step); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.SaveVariables(path); err != nil {
		t.Fatal(err)
	}

	// A fresh session restores and continues from the checkpoint.
	sess2 := dcf.NewSession(g)
	if err := sess2.RestoreVariables(path); err != nil {
		t.Fatal(err)
	}
	v, err := sess2.Run1(nil, g.ReadVariable("w"))
	if err != nil {
		t.Fatal(err)
	}
	if v.ScalarValue() != 3 {
		t.Fatalf("restored %v, want 3", v)
	}
}

func TestGraphOptimize(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	c := g.Scalar(2).Mul(g.Scalar(3)) // foldable
	a := x.Square()
	b := x.Square() // duplicate
	y := a.Add(b).Mul(c)
	st, err := g.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if st.Folded < 1 || st.CSE < 1 {
		t.Fatalf("stats %+v", st)
	}
	v, err := dcf.NewSession(g).Run1(dcf.Feeds{"x": dcf.ScalarVal(2)}, y)
	if err != nil {
		t.Fatal(err)
	}
	if v.ScalarValue() != 48 { // (4+4)*6
		t.Fatalf("got %v", v)
	}
}
