// Quickstart: build a dataflow graph with an in-graph while-loop, run it,
// differentiate through it, and train a parameter with SGD — the core
// workflow of the paper's programming model (§2.1, §5.1) — then run the
// higher-order functions built on while_loop (Figure 2) and check each
// against its closed form.
package main

import (
	"fmt"
	"log"

	"repro/dcf"
)

func main() {
	g := dcf.NewGraph()

	// A trainable 2x2 matrix and an input placeholder.
	w := g.Variable("w", dcf.RandNormal(1, 0, 0.4, 2, 2))
	x := g.Placeholder("x")

	// a := x; for i := 0; i < 5; i++ { a = tanh(a @ w) }
	// The loop compiles to Switch/Merge/Enter/Exit/NextIteration and its
	// iterations may pipeline (§4).
	outs := g.While(
		[]dcf.Tensor{g.Scalar(0), x},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(5)) },
		func(v []dcf.Tensor) []dcf.Tensor {
			return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].MatMul(w).Tanh()}
		},
		dcf.WhileOpts{},
	)
	result := outs[1]

	// Train w so the loop's output matches a target — backprop through
	// the loop runs a gradient loop in reverse, restoring intermediates
	// from stacks (§5.1).
	target := g.Const(dcf.FromFloats([]float64{0.5, -0.25, 0.25, -0.5}, 2, 2))
	loss := result.Sub(target).Square().ReduceSum()
	grads := g.MustGradients(loss, w)
	step := g.ApplySGD("w", grads[0], g.Scalar(0.2))

	// scan, map_fn, foldl and foldr over the digits 1..5, each a while loop
	// over TensorArrays.
	digits := g.Const(dcf.FromFloats([]float64{1, 2, 3, 4, 5}, 5))
	shift := func(acc, d dcf.Tensor) dcf.Tensor { return acc.Mul(g.Scalar(10)).Add(d) }
	higher := []dcf.Tensor{
		g.Scan(func(acc, d dcf.Tensor) dcf.Tensor { return acc.Add(d) }, digits, g.Scalar(0), dcf.WhileOpts{}),
		g.MapFn(func(d dcf.Tensor) dcf.Tensor { return d.Square() }, digits, dcf.WhileOpts{}),
		g.FoldL(shift, digits, g.Scalar(0), dcf.WhileOpts{}),
		g.FoldR(shift, digits, g.Scalar(0), dcf.WhileOpts{}),
	}

	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		log.Fatal(err)
	}
	feeds := dcf.Feeds{"x": dcf.FromFloats([]float64{1, 0, 0, 1}, 2, 2)}

	before, err := sess.Run1(feeds, loss)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := sess.RunTargets(feeds, step); err != nil {
			log.Fatal(err)
		}
	}
	after, err := sess.Run1(feeds, loss)
	if err != nil {
		log.Fatal(err)
	}
	final, err := sess.Run1(feeds, result)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loss before training: %.4f\n", before.ScalarValue())
	fmt.Printf("loss after  training: %.4f\n", after.ScalarValue())
	fmt.Printf("loop output after training: %v\n", final)

	got, err := sess.Run(nil, higher)
	if err != nil {
		log.Fatal(err)
	}
	scan, squares, foldl, foldr := got[0], got[1], got[2], got[3]
	for k := 1; k <= 5; k++ {
		if scan.F[k-1] != float64(k*(k+1)/2) || squares.F[k-1] != float64(k*k) {
			log.Fatalf("scan %v, map_fn %v: want k(k+1)/2 and k² at k=%d", scan, squares, k)
		}
	}
	if foldl.ScalarValue() != 12345 || foldr.ScalarValue() != 54321 {
		log.Fatalf("foldl %v, foldr %v: want 12345 and 54321", foldl, foldr)
	}
	fmt.Printf("scan %v, map_fn %v, foldl %v, foldr %v\n", scan.F, squares.F, foldl.ScalarValue(), foldr.ScalarValue())
}
