package autodiff

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// stored returns shape as MatMul stores an operand whose transpose attr is
// set: its last two axes swapped.
func stored(transposed bool, shape ...int) []int {
	s := append([]int(nil), shape...)
	if transposed {
		n := len(s)
		s[n-2], s[n-1] = s[n-1], s[n-2]
	}
	return s
}

// TestMatMulGradientAttrTable checks every row of the gradient table —
// C = op(A)·op(B) for the four transpose_a/transpose_b combinations, with
// respect to either operand, at rank 2 and batched rank 3 — against central
// differences. The rank-3 rows failed at run time before the gradient used
// attrs: it built a default Transpose, which only takes matrices.
func TestMatMulGradientAttrTable(t *testing.T) {
	const m, k, n = 2, 3, 4
	rng := tensor.NewRNG(5)
	for _, batch := range [][]int{nil, {2}} {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				as := stored(ta, append(append([]int(nil), batch...), m, k)...)
				bs := stored(tb, append(append([]int(nil), batch...), k, n)...)
				attrs := map[string]any{"transpose_a": ta, "transpose_b": tb}
				for wrt := 0; wrt < 2; wrt++ {
					name := fmt.Sprintf("rank%d/ta=%v/tb=%v/wrt=%d", 2+len(batch), ta, tb, wrt)
					t.Run(name, func(t *testing.T) {
						b := core.NewBuilder()
						x := b.Placeholder("x")
						var c graph.Output
						var xShape []int
						if wrt == 0 {
							xShape = as
							c = b.Op("MatMul", attrs, x, b.Const(tensor.RandNormal(rng, 0, 1, bs...)))
						} else {
							xShape = bs
							c = b.Op("MatMul", attrs, b.Const(tensor.RandNormal(rng, 0, 1, as...)), x)
						}
						y := b.ReduceSum(b.Op("Square", nil, c), nil, false)
						if b.Err() != nil {
							t.Fatal(b.Err())
						}
						checkGrad(t, b, y, x, "x", tensor.RandNormal(rng, 0, 1, xShape...), nil, 1e-4)
					})
				}
			}
		}
	}
}

// TestMatMulGradientBuildsNoTranspose: the gradient is two MatMul nodes
// carrying attrs, whatever attrs the forward node carried.
func TestMatMulGradientBuildsNoTranspose(t *testing.T) {
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			b := core.NewBuilder()
			x, w := b.Placeholder("x"), b.Placeholder("w")
			c := b.Op("MatMul", map[string]any{"transpose_a": ta, "transpose_b": tb}, x, w)
			before := b.G.NumNodes()
			if _, err := Gradients(b, b.ReduceSum(c, nil, false), []graph.Output{x, w}, Options{}); err != nil {
				t.Fatal(err)
			}
			matmuls := 0
			for _, n := range b.G.Nodes()[before:] {
				switch n.Op() {
				case "Transpose":
					t.Errorf("transpose_a %v transpose_b %v: gradient built %s", ta, tb, n.Name())
				case "MatMul":
					matmuls++
				}
			}
			if matmuls != 2 {
				t.Errorf("transpose_a %v transpose_b %v: gradient built %d MatMul nodes, want 2", ta, tb, matmuls)
			}
		}
	}
}

// TestMatMulSecondOrderGradient differentiates a gradient: the first-order
// MatMuls carry attrs, so the second order walks the table's other rows. The
// scalars are [1,1] products rather than Sums (SumGrad has no gradient of its
// own).
func TestMatMulSecondOrderGradient(t *testing.T) {
	rng := tensor.NewRNG(6)
	b := core.NewBuilder()
	x := b.Placeholder("x")
	rnd := func(shape ...int) graph.Output { return b.Const(tensor.RandNormal(rng, 0, 1, shape...)) }
	scalar := func(v graph.Output, rows, cols int) graph.Output {
		return b.MatMul(b.MatMul(rnd(1, rows), v), rnd(cols, 1))
	}
	y := scalar(b.Tanh(b.MatMul(x, rnd(3, 4))), 2, 4)
	dx, err := Gradients(b, y, []graph.Output{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	z := scalar(dx[0], 2, 3)
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	checkGrad(t, b, z, x, "x", tensor.RandNormal(rng, 0, 0.5, 2, 3), nil, 1e-4)
}

// TestActivationSecondOrderGradient differentiates the gradients of Sigmoid
// and Tanh, one SigmoidGrad or TanhGrad node each, against central
// differences. Squaring the activation makes the gradient flowing into it
// depend on x too, so the second order runs through both operands of the
// node.
func TestActivationSecondOrderGradient(t *testing.T) {
	for _, act := range []string{"Sigmoid", "Tanh"} {
		t.Run(act, func(t *testing.T) {
			rng := tensor.NewRNG(7)
			b := core.NewBuilder()
			x := b.Placeholder("x")
			rnd := func(shape ...int) graph.Output { return b.Const(tensor.RandNormal(rng, 0, 1, shape...)) }
			scalar := func(v graph.Output, rows, cols int) graph.Output {
				return b.MatMul(b.MatMul(rnd(1, rows), v), rnd(cols, 1))
			}
			y := scalar(b.Op("Square", nil, b.Op(act, nil, b.MatMul(x, rnd(3, 4)))), 2, 4)
			before := b.G.NumNodes()
			dx, err := Gradients(b, y, []graph.Output{x}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			grads := 0
			for _, n := range b.G.Nodes()[before:] {
				if n.Op() == act+"Grad" {
					grads++
				}
			}
			if grads != 1 {
				t.Fatalf("the gradient built %d %sGrad nodes, want 1", grads, act)
			}
			z := scalar(dx[0], 2, 3)
			if b.Err() != nil {
				t.Fatal(b.Err())
			}
			checkGrad(t, b, z, x, "x", tensor.RandNormal(rng, 0, 0.5, 2, 3), nil, 1e-4)
		})
	}
}
