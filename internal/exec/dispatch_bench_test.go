package exec_test

import (
	"context"
	"testing"

	"repro/dcf"
	"repro/internal/metrics"
)

// BenchmarkLoopDispatch is the repo benchmark's loop_dispatch workload as a
// go-test benchmark (in the external test package, because dcf imports exec): one Callable.Call of a 5000-iteration two-variable
// While (i+1; acc*a+b — three scalar kernels per iteration), so ns/op,
// B/op and allocs/op are per 5000-iteration call and nearly all of it is
// the executor moving tokens through Merge/Switch/NextIteration; ns/node is
// per node execution (15 an iteration).
func BenchmarkLoopDispatch(b *testing.B) {
	const iters = 5000
	g := dcf.NewGraph()
	bias := g.Placeholder("b")
	n, a := g.Scalar(iters), g.Scalar(0.9997)
	outs := g.While(
		[]dcf.Tensor{g.Scalar(0), g.Scalar(1)},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(n) },
		func(v []dcf.Tensor) []dcf.Tensor {
			return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].Mul(a).Add(bias)}
		},
		dcf.WhileOpts{Name: "dispatch"})
	if err := g.Err(); err != nil {
		b.Fatal(err)
	}
	sess := dcf.NewSession(g)
	defer sess.Close()
	call, err := sess.MakeCallable(dcf.CallableSpec{Feeds: []string{"b"}, Fetches: outs})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	feed := dcf.ScalarVal(1.25)
	kernels := metrics.Default().Counter("exec_kernels_total")
	nodes := kernels.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := call.Call(ctx, feed)
		if err != nil {
			b.Fatal(err)
		}
		if got := out[0].ScalarValue(); got != iters {
			b.Fatalf("count %v, want %d", got, iters)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(kernels.Value()-nodes, 1)), "ns/node")
}
