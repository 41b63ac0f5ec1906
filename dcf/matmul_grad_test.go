package dcf_test

import (
	"math"
	"testing"

	"repro/dcf"
)

// numericGradient estimates d scalar / d x by central differences, running
// the graph once per perturbed element of the feed "x".
func numericGradient(t *testing.T, sess *dcf.Session, scalar dcf.Tensor, x *dcf.Value) *dcf.Value {
	t.Helper()
	const eps = 1e-5
	out := dcf.Zeros(x.Shape()...)
	at := func(i int, v float64) float64 {
		xx := x.Clone()
		xx.F[i] = v
		r, err := sess.Run1(dcf.Feeds{"x": xx}, scalar)
		if err != nil {
			t.Fatal(err)
		}
		return r.ScalarValue()
	}
	for i := range x.F {
		out.F[i] = (at(i, x.F[i]+eps) - at(i, x.F[i]-eps)) / (2 * eps)
	}
	return out
}

// TestBatchedMatMulGradient: the gradient of a rank-3 MatMul used to build a
// default Transpose and fail at run time ("default Transpose requires rank 2,
// got [2 3 4]"); with transpose attrs over the last two axes it just works.
func TestBatchedMatMulGradient(t *testing.T) {
	g := dcf.NewGraph()
	a := g.Placeholder("x")
	w := g.Variable("w", dcf.RandNormal(3, 0, 1, 2, 4, 5))
	loss := a.MatMul(w).Square().ReduceSum()
	grads := g.MustGradients(loss, a, w)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	sess := dcf.NewSession(g)
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	x := dcf.RandNormal(4, 0, 1, 2, 3, 4)
	got, err := sess.Run(dcf.Feeds{"x": x}, grads)
	if err != nil {
		t.Fatalf("gradient of a[2,3,4].MatMul(w[2,4,5]): %v", err)
	}
	if want := numericGradient(t, sess, loss, x); !allClose(got[0], want, 1e-4) {
		t.Fatalf("d loss / d a = %v, numeric %v", got[0], want)
	}
	if s := got[1].Shape(); len(s) != 3 || s[0] != 2 || s[1] != 4 || s[2] != 5 {
		t.Fatalf("d loss / d w has shape %v, want [2 4 5]", s)
	}
}

// TestSecondOrderGradientThroughMatMul differentiates a gradient whose
// MatMuls carry transpose attrs, so the second pass reads the other rows of
// the gradient table. The scalars are [1,1] products (SumGrad has no
// gradient of its own).
func TestSecondOrderGradientThroughMatMul(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	seed := uint64(10)
	rnd := func(shape ...int) dcf.Tensor { seed++; return g.Const(dcf.RandNormal(seed, 0, 1, shape...)) }
	scalar := func(v dcf.Tensor, rows, cols int) dcf.Tensor { return rnd(1, rows).MatMul(v).MatMul(rnd(cols, 1)) }
	y := scalar(x.MatMul(rnd(3, 4)).Tanh(), 2, 4)
	dx := g.MustGradients(y, x)[0]
	z := scalar(dx, 2, 3)
	ddx := g.MustGradients(z, x)[0]
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	sess := dcf.NewSession(g)
	defer sess.Close()
	xv := dcf.RandNormal(5, 0, 0.5, 2, 3)
	got, err := sess.Run1(dcf.Feeds{"x": xv}, ddx)
	if err != nil {
		t.Fatal(err)
	}
	if want := numericGradient(t, sess, z, xv); !allClose(got, want, 1e-4) {
		t.Fatalf("second-order gradient %v, numeric %v", got, want)
	}
}

// TestMatMulDoesNotHideAPoisonedWeight: a zero activation times an infinite
// weight is NaN, in the product and in the loss — the old kernel skipped
// zero rows and reported a finite loss.
func TestMatMulDoesNotHideAPoisonedWeight(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	w := g.Const(dcf.FromFloats([]float64{1, math.Inf(1), 2, 3}, 2, 2))
	loss := x.MatMul(w).Square().ReduceSum()
	sess := dcf.NewSession(g)
	defer sess.Close()
	got, err := sess.Run1(dcf.Feeds{"x": dcf.FromFloats([]float64{0, 1}, 1, 2)}, loss)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.ScalarValue()) {
		t.Fatalf("loss through a poisoned weight is %v, want NaN", got.ScalarValue())
	}
}
