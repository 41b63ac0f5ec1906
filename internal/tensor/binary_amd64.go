package tensor

//go:noescape
func binaryRunAVX2(op int, out, a, b *float64, n, ia, ib int)

// binaryMinAVX2 is the shortest run binaryAVX2 hands to the assembly. Below
// it the Go loop runs, so a chain of scalar ops (loop_dispatch's body) keeps
// the code it had. A sweep of Mul on a 2-vCPU Xeon with AVX2, ns per run,
// Go loop / assembly, with both operands contiguous or one repeated:
//
//	n           1          2          3          4          8          32
//	both     3.0 / 4.0  4.8 / 4.8  5.3 / 5.9  6.5 / 3.6  9.3 / 4.4  23 / 7.3
//	a once   5.4 / 3.8  7.9 / 4.8  8.8 / 5.8   11 / 3.4   18 / 4.2  55 / 7.8
//	b once   6.3 / 4.7  8.5 / 5.2   10 / 7.9   11 / 3.9   18 / 4.9  57 / 7.8
//
// Under four elements the assembly has only its one-at-a-time tail, which
// loses to the Go loop where both operands are contiguous.
const binaryMinAVX2 = 4

// binaryAVX2 is binaryGo in YMM lanes (binary_amd64.s), four elements to a
// register. The slices are cut to what the assembly will touch first.
func binaryAVX2(op elemOp, out, a, b []float64, ia, ib int) {
	n := len(out)
	if n < binaryMinAVX2 {
		binaryGo(op, out, a, b, ia, ib)
		return
	}
	switch {
	case ia == 0:
		a, b = a[:1], b[:n]
	case ib == 0:
		a, b = a[:n], b[:1]
	default:
		a, b = a[:n], b[:n]
	}
	binaryRunAVX2(int(op), &out[0], &a[0], &b[0], n, ia, ib)
}
