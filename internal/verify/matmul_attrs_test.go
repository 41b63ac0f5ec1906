package verify_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify"
)

// TestMatMulAttrsInStaticLayer: shape inference, the matmul-inner finding
// and the memory pass's residency all read a MatMul's operands the way its
// transpose_a / transpose_b attrs say they are stored — over the four
// combinations, for matrices and for rank-3 batches.
func TestMatMulAttrsInStaticLayer(t *testing.T) {
	const m, k, n = 2, 3, 5
	swapIf := func(t bool, rows, cols int) (int, int) {
		if t {
			return cols, rows
		}
		return rows, cols
	}
	for _, batch := range []int{0, 4} { // 0: rank 2
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				t.Run(fmt.Sprintf("batch=%d/ta=%v/tb=%v", batch, ta, tb), func(t *testing.T) {
					ar, ac := swapIf(ta, m, k)
					br, bc := swapIf(tb, k, n)
					as, bs, elems := []int{ar, ac}, []int{br, bc}, m*n
					if batch > 0 {
						as, bs, elems = append([]int{batch}, as...), append([]int{batch}, bs...), batch*m*n
					}
					build := func(attrs map[string]any) (*gb, *graph.Node) {
						b := newGB(t)
						x := b.constF("a", make([]float64, max(batch, 1)*m*k), as...)
						y := b.constF("b", make([]float64, max(batch, 1)*k*n), bs...)
						mm := b.node("MatMul", "mm", 1, attrs, x.Out(0), y.Out(0))
						return b, b.node("Square", "sq", 1, nil, mm.Out(0))
					}
					b, _ := build(map[string]any{"transpose_a": ta, "transpose_b": tb})
					if ds := verify.Check(b.g, verify.Options{}); len(ds) != 0 {
						t.Fatalf("well-formed MatMul %v x %v drew findings: %v", as, bs, ds)
					}
					// At sq the product and sq's own output are resident,
					// both of the inferred output shape.
					est := estimate(t, b.g, verify.Options{})
					for _, nm := range est.Nodes {
						if nm.Node == "sq" && nm.FixedBytes != int64(2*elems*8) {
							t.Errorf("residency at sq is %d B, want %d (output shape mis-inferred)", nm.FixedBytes, 2*elems*8)
						}
					}
					if !est.Finite() {
						t.Errorf("static shapes must bound finitely: %s", est)
					}
					// The same operands under the opposite attrs do not
					// multiply: one of the two flips makes the inner
					// dimensions disagree.
					b, _ = build(map[string]any{"transpose_a": !ta, "transpose_b": tb})
					found := false
					for _, d := range verify.Check(b.g, verify.Options{}) {
						found = found || (d.Code == "matmul-inner" && d.Node == "mm")
					}
					if !found {
						t.Errorf("MatMul %v x %v with transpose_a flipped drew no matmul-inner finding", as, bs)
					}
				})
			}
		}
	}
	// Ranks must agree, and rank-3 batches must too.
	b := newGB(t)
	x := b.constF("a", make([]float64, 6), 2, 3)
	y := b.constF("b", make([]float64, 12), 1, 3, 4)
	b.node("MatMul", "mixed", 1, nil, x.Out(0), y.Out(0))
	p := b.constF("p", make([]float64, 12), 2, 2, 3)
	q := b.constF("q", make([]float64, 36), 3, 3, 4)
	b.node("MatMul", "batches", 1, nil, p.Out(0), q.Out(0))
	codes := map[string]string{}
	for _, d := range verify.Check(b.g, verify.Options{}) {
		codes[d.Node] = d.Code
	}
	if codes["mixed"] != "matmul-rank" || codes["batches"] != "matmul-inner" {
		t.Errorf("findings by node: %v; want mixed: matmul-rank, batches: matmul-inner", codes)
	}
}
