package tensor

// Micro-benchmarks of the kernels an rnn_train step and a serve_http request
// spend their time in, at those workloads' shapes. Outputs are recycled the
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		Recycle(out)
	}
}

// BenchmarkMatMul runs the three kernels at the training shape
// ([16,96]·[96,256], the LSTM's gate product) and the inference shape
// ([32,256]·[256,256], a dcfserve batch); the operands of NT and TN are
// stored transposed, so every variant computes the same m×k×n product.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range [][3]int{{16, 96, 256}, {32, 256, 256}} {
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
			b.Run(fmt.Sprintf("%s_%dx%dx%d", v.name, m, k, n), func(b *testing.B) {
				benchKernel(b, func() (*Tensor, error) { return MatMulT(x, y, v.ta, v.tb) })
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
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

func BenchmarkBroadcastAdd(b *testing.B) {
	z, bias := benchRand(16, 256), benchRand(256)
	benchKernel(b, func() (*Tensor, error) { return Add(z, bias) })
}

func BenchmarkUnbroadcast(b *testing.B) {
	g := benchRand(16, 256)
	benchKernel(b, func() (*Tensor, error) { return UnbroadcastTo(g, []int{256}) })
}

func BenchmarkAddSameShape(b *testing.B) {
	x, y := benchRand(64, 256), benchRand(64, 256)
	b.SetBytes(3 * 8 * 64 * 256) // two operands read, one result written
	benchKernel(b, func() (*Tensor, error) { return Add(x, y) })
}
