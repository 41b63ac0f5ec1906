package tensor

import (
	"fmt"

	"repro/internal/metrics"
)

// kernNN and kernNT are the kernels MatMulT runs: the Go loops below, or on
// an amd64 CPU with AVX2 the assembly behind matmul_amd64.go, chosen once at
// package init with kernBinary. The gauge says which, so a /metrics reader
// can tell what produced a number: 1 for the assembly, 0 for the Go loops.
var (
	kernNN, kernNT   = matmulNN, matmulNT
	metricMatMulAVX2 = metrics.Default().Gauge("tensor_matmul_avx2_count")
)

// MatMul multiplies two rank-2 float tensors: [m,k] x [k,n] -> [m,n].
// It also accepts batched rank-3 inputs [b,m,k] x [b,k,n] -> [b,m,n].
// dcfvet:allow deadapi=benchmark/ times it for tensor.matmul_train_us and tensor.matmul_infer_us
func MatMul(a, b *Tensor) (*Tensor, error) { return MatMulT(a, b, false, false) }

// MatMulT is MatMul reading either operand transposed over its last two
// axes, without materialising the transpose: with transA the first operand
// is stored [k,m] (or [b,k,m]), with transB the second is stored [n,k].
// Each output element is the sum over p of a·b products taken in increasing
// p starting from +0, whichever way the operands are stored, so the result
// has the same bits as MatMul on explicitly transposed copies.
func MatMulT(a, b *Tensor, transA, transB bool) (*Tensor, error) {
	if a.dtype != Float || b.dtype != Float {
		return nil, fmt.Errorf("tensor: MatMul requires float tensors, got %v and %v", a.dtype, b.dtype)
	}
	r := a.Rank()
	if (r != 2 && r != 3) || b.Rank() != r {
		return nil, fmt.Errorf("tensor: MatMul requires rank-2 or rank-3 tensors, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[r-2], a.shape[r-1]
	if transA {
		m, k = k, m
	}
	k2, n := b.shape[r-2], b.shape[r-1]
	if transB {
		k2, n = n, k2
	}
	batch := 1
	if r == 3 {
		batch = a.shape[0]
	}
	if k != k2 || (r == 3 && b.shape[0] != batch) {
		return nil, fmt.Errorf("tensor: MatMul shape mismatch: %v x %v (transpose_a %t, transpose_b %t)", a.shape, b.shape, transA, transB)
	}
	var sbuf [3]int
	out := Alloc(Float, append(append(sbuf[:0], a.shape[:r-2]...), m, n)...) // the kernels write every element
	for i := 0; i < batch; i++ {
		o, x, y := out.F[i*m*n:(i+1)*m*n], a.F[i*m*k:(i+1)*m*k], b.F[i*k*n:(i+1)*k*n]
		switch {
		case !transB && !transA:
			kernNN(o, x, y, m, k, n, k, 1)
		case !transB:
			kernNN(o, x, y, m, k, n, 1, m)
		case !transA:
			kernNT(o, x, y, m, k, n)
		default:
			// aᵀ·bᵀ has no kernel of its own (nothing in the runtime
			// produces it but a gradient of itself): transpose b into
			// scratch and run aᵀ·b.
			yt := Alloc(Float, k, n)
			transpose2D(yt.F, y, n, k)
			kernNN(o, x, yt.F, m, k, n, 1, m)
			Recycle(yt)
		}
	}
	return out, nil
}

// matmulNN computes out[m,n] = A·B for a row-major B[k,n], where element
// (i,p) of A is a[i*ai+p*ap]: (k,1) reads a row-major A[m,k], (1,m) reads a
// stored [k,m] as its transpose. Row i of out accumulates a(i,p)·B[p,:] in
// increasing p, four p at a time with the additions kept in that order; the
// first block starts from zero rather than from the output, so out need not
// be cleared and 0 + (−0) still gives +0.
func matmulNN(out, a, b []float64, m, k, n, ai, ap int) {
	if k == 0 {
		clear(out)
		return
	}
	for i := 0; i < m; i++ {
		o, ar := out[i*n:(i+1)*n], a[i*ai:]
		p := 0
		if k >= 4 {
			b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
			a0, a1, a2, a3 := ar[0], ar[ap], ar[2*ap], ar[3*ap]
			for j := range o {
				s := 0.0
				s += a0 * b0[j]
				s += a1 * b1[j]
				s += a2 * b2[j]
				s += a3 * b3[j]
				o[j] = s
			}
			p = 4
		} else {
			clear(o)
		}
		for ; p+4 <= k; p += 4 {
			b0, b1, b2, b3 := b[p*n:(p+1)*n], b[(p+1)*n:(p+2)*n], b[(p+2)*n:(p+3)*n], b[(p+3)*n:(p+4)*n]
			a0, a1, a2, a3 := ar[p*ap], ar[(p+1)*ap], ar[(p+2)*ap], ar[(p+3)*ap]
			for j := range o {
				s := o[j]
				s += a0 * b0[j]
				s += a1 * b1[j]
				s += a2 * b2[j]
				s += a3 * b3[j]
				o[j] = s
			}
		}
		for ; p < k; p++ {
			av, br := ar[p*ap], b[p*n:(p+1)*n]
			for j := range o {
				o[j] += av * br[j]
			}
		}
	}
}

// matmulNT computes out[m,n] = A·Bᵀ for row-major A[m,k] and B[n,k]: each
// output element is a dot product of two rows, summed in increasing p from
// zero. Four columns are computed at a time — four independent sums that
// share each load of A's row.
func matmulNT(out, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		o, ar := out[i*n:(i+1)*n], a[i*k:(i+1)*k]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1, b2, b3 := b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k], b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			o[j], o[j+1], o[j+2], o[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			br := b[j*k : (j+1)*k]
			var s float64
			for p, av := range ar {
				s += av * br[p]
			}
			o[j] = s
		}
	}
}

// Transpose returns the rank-2 transpose, or a permuted rank-N transpose if
// perm is given.
func Transpose(t *Tensor, perm ...int) (*Tensor, error) {
	rank := t.Rank()
	if len(perm) == 0 {
		if rank != 2 {
			return nil, fmt.Errorf("tensor: default Transpose requires rank 2, got %v", t.shape)
		}
		perm = []int{1, 0}
	}
	if len(perm) != rank {
		return nil, fmt.Errorf("tensor: Transpose perm %v does not match rank %d", cloneShape(perm), rank)
	}
	var sbuf, obuf, pbuf [walkInline]int
	oldSt := keptStrides(sbuf[:0], t.shape, nil)
	newShape, srcSt := append(obuf[:0], perm...), append(pbuf[:0], perm...)
	for i, p := range perm {
		if p < 0 || p >= rank || oldSt[p] < 0 {
			return nil, fmt.Errorf("tensor: invalid Transpose perm %v", cloneShape(perm))
		}
		newShape[i], srcSt[i] = t.shape[p], oldSt[p]
		oldSt[p] = -1 // taken
	}
	out := Alloc(t.dtype, newShape...) // every element is written below
	var wbuf [walkInline]walkAxis
	w := newWalker(wbuf[:0], newShape, srcSt, nil)
	gather(out, t, &w)
	return out, nil
}
