package tensor

// Micro-benchmarks of the kernels an rnn_train step, a serve_http request and
// a cluster_loop iteration spend their time in, at those workloads' shapes. Outputs are recycled the
// way the executor recycles them, so each iteration runs at the pool's
// steady state.

import (
	"fmt"
	"testing"
)

func benchRand(shape ...int) *Tensor { return RandNormal(NewRNG(1), 0, 1, shape...) }

func benchKernel(b *testing.B, fn func() (*Tensor, error)) {
	b.Helper()
	b.ReportAllocs()
	// One call outside the timer: it takes the pool miss, the page faults
	// and the CPU's wake-up of its 256-bit units, which at -benchtime=300x
	// would otherwise be a visible share of the first case's time.
	if out, err := fn(); err == nil {
		Recycle(out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		Recycle(out)
	}
}

// BenchmarkMatMul runs the three kernels on each path this host has, AVX2 and
// portable side by side, at the training shape ([16,96]·[96,256], the LSTM's
// gate product), the inference shapes ([32,256]·[256,256] and ·[256,16], a
// dcfserve batch through both layers), a k that is no multiple of four, and an
// n below the assembly's tile width, where both paths run the Go loop. The
// operands of NT and TN are stored transposed, so every variant computes the
// same m×k×n product.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range [][3]int{{16, 96, 256}, {32, 256, 256}, {32, 256, 16}, {16, 97, 256}, {16, 96, 3}} {
		m, k, n := s[0], s[1], s[2]
		for _, v := range []struct {
			name   string
			ta, tb bool
		}{{"NN", false, false}, {"NT", false, true}, {"TN", true, false}} {
			as, bs := []int{m, k}, []int{k, n}
			if v.ta {
				as = []int{k, m}
			}
			if v.tb {
				bs = []int{n, k}
			}
			x, y := benchRand(as...), benchRand(bs...)
			onEachPath(func(path string) {
				b.Run(fmt.Sprintf("%s_%dx%dx%d/%s", v.name, m, k, n, path), func(b *testing.B) {
					benchKernel(b, func() (*Tensor, error) { return MatMulT(x, y, v.ta, v.tb) })
					b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			})
		}
	}
}

func BenchmarkTranspose(b *testing.B) {
	w := benchRand(96, 256)
	b.Run("96x256", func(b *testing.B) {
		benchKernel(b, func() (*Tensor, error) { return Transpose(w) })
	})
	gates := benchRand(16, 4, 64) // the LSTM's gate split
	b.Run("16x4x64_perm102", func(b *testing.B) {
		benchKernel(b, func() (*Tensor, error) { return Transpose(gates, 1, 0, 2) })
	})
}

// BenchmarkBroadcastAdd is the LSTM's bias add, [16,256]+[256]: 16 runs of
// 256 with both operands contiguous.
func BenchmarkBroadcastAdd(b *testing.B) {
	z, bias := benchRand(16, 256), benchRand(256)
	onEachPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			benchKernel(b, func() (*Tensor, error) { return Add(z, bias) })
		})
	})
}

func BenchmarkUnbroadcast(b *testing.B) {
	g := benchRand(16, 256)
	benchKernel(b, func() (*Tensor, error) { return UnbroadcastTo(g, []int{256}) })
}

// BenchmarkAddSameShape is cluster_loop's body: one run of [64,256] on each
// side.
func BenchmarkAddSameShape(b *testing.B) {
	x, y := benchRand(64, 256), benchRand(64, 256)
	onEachPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			b.SetBytes(3 * 8 * 64 * 256) // two operands read, one result written
			benchKernel(b, func() (*Tensor, error) { return Add(x, y) })
		})
	})
}

// BenchmarkScalarMul is the SGD update's gradient × learning rate on the
// LSTM's [96,256] kernel: one run with b repeated.
func BenchmarkScalarMul(b *testing.B) {
	g, lr := benchRand(96, 256), Scalar(0.01)
	onEachPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			benchKernel(b, func() (*Tensor, error) { return Mul(g, lr) })
		})
	})
}

// BenchmarkTransc is the LSTM's gate activations, [16,64] each, on each
// path.
func BenchmarkTransc(b *testing.B) {
	x := benchRand(16, 64)
	for _, o := range []struct {
		name string
		into func(dst, t *Tensor) (*Tensor, error)
	}{{"Sigmoid", SigmoidInto}, {"Tanh", TanhInto}} {
		onEachPath(func(path string) {
			b.Run(o.name+"/"+path, func(b *testing.B) {
				benchKernel(b, func() (*Tensor, error) { return o.into(nil, x) })
			})
		})
	}
}
