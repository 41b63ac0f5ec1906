package tensor

// The AVX2 MatMul kernels (matmul_amd64.s), selected once at package init when
// the CPU has AVX2 and FMA and the OS saves YMM state, together with the
// arithmetic kernel of binary_amd64.go and the Sigmoid/Tanh kernel of
// transc_amd64.go. FMA is asked for because math.Exp takes its FMA path on
// exactly such CPUs, and transc_amd64.s mirrors that path. matmulNN,
// matmulNT, binaryGo and transcGo stay the kernels of every other CPU and
// GOARCH, and the references these are compared against bit for bit
// (TestDifferentialMatMul, TestDifferentialBinary, TestDifferentialTransc).

func init() {
	if cpuHasAVX2() {
		kernNN, kernNT, kernBinary, kernTransc = matmulNNAVX2, matmulNTAVX2, binaryAVX2, transcAVX2
		metricMatMulAVX2.Set(1)
	}
}

func cpuHasAVX2() bool

//go:noescape
func nnRows4AVX2(o, a *[4]*float64, b *float64, k, n, ap int)

//go:noescape
func ntRows4AVX2(o, a *[4]*float64, b *float64, k, n int)

// matmulNNAVX2 is matmulNN in blocks of four rows. The Go loop keeps what the
// assembly cannot do better: products narrower than its tile of 8 columns,
// and a single row, which a four-row block would compute four times. A sweep
// of m ∈ {1,2,3,4,5,8,16} × k ∈ {1,4,16,96} × n ∈ {4…32,256}, Go loop time ÷
// assembly time (matmulNTAVX2 takes its cut from the same sweep):
//
//	           m = 1      m = 2      m = 3      m ≥ 4
//	a·b, aᵀ·b  0.6–1.7    1.0–2.7    1.1–4.1    1.0–6.3   (n ≥ 8)
//	a·bᵀ       0.7–1.1    1.0–3.2    1.1–4.6    0.9–6.3   (n ≥ 4)
//
// with every ratio below 1.2 at m ≥ 2 a product of under 160 ns either way.
// The assembly indexes nothing it is not told is there, so the slices are cut
// to what it will touch first.
func matmulNNAVX2(out, a, b []float64, m, k, n, ai, ap int) {
	if m < 2 || k == 0 || n < 8 {
		matmulNN(out, a, b, m, k, n, ai, ap)
		return
	}
	out, b = out[:m*n], b[:k*n]
	_ = a[(m-1)*ai+(k-1)*ap]
	var o, r [4]*float64
	for i := 0; i < m; i += 4 {
		rows4(&o, &r, out, a, i, m, n, ai)
		nnRows4AVX2(&o, &r, &b[0], k, n, ap)
	}
}

// matmulNTAVX2 is matmulNT in blocks of four rows.
func matmulNTAVX2(out, a, b []float64, m, k, n int) {
	if m < 2 || k == 0 || n < 4 { // its tile is 4 columns wide
		matmulNT(out, a, b, m, k, n)
		return
	}
	out, a, b = out[:m*n], a[:m*k], b[:n*k]
	var o, r [4]*float64
	for i := 0; i < m; i += 4 {
		rows4(&o, &r, out, a, i, m, n, k)
		ntRows4AVX2(&o, &r, &b[0], k, n)
	}
}

// rows4 points o and r at rows i..i+3 of out[m,n] and at the first element of
// the same rows of a, ai apart. Past the last row it repeats row m-1: the
// kernel computes that row again and stores the same bits, which is how a
// block of fewer than four rows is run.
func rows4(o, r *[4]*float64, out, a []float64, i, m, n, ai int) {
	for c := range o {
		row := min(i+c, m-1)
		o[c], r[c] = &out[row*n], &a[row*ai]
	}
}
