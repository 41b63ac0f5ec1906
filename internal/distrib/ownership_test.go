package distrib

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// poolLive is the buffer pool's live-bytes gauge, as /metrics exports it.
var poolLive = metrics.Default().Gauge("tensor_pool_live_bytes")

// buildTensorHopLoop is a While whose tensor loop variable crosses from
// workers[0] to workers[1] and back every iteration, through an owned-
// buffer elementwise chain on each side: the shape of the benchmark's
// cluster_loop, and the path on which buffer ownership moves through the
// rendezvous (Send hands the buffer over, Recv's output is forwarded in
// place into the next kernel).
func buildTensorHopLoop(workers []string, x *tensor.Tensor) (*core.Builder, []graph.Output) {
	b := core.NewBuilder()
	var fetches []graph.Output
	full := func(v float64) graph.Output { return b.Const(tensor.Full(v, x.Shape()...)) }
	b.WithDevice(workers[0]+"/cpu", func() {
		limit := b.Placeholder("limit")
		t0 := b.Mul(b.Const(x), b.Placeholder("s"))
		outs := b.While(
			[]graph.Output{b.Scalar(0), t0},
			func(v []graph.Output) graph.Output { return b.Less(v[0], limit) },
			func(v []graph.Output) []graph.Output {
				t := v[1]
				b.WithDevice(workers[1]+"/cpu", func() {
					t = b.Add(b.Mul(t, full(0.5)), full(0.25))
				})
				t = b.Add(b.Mul(t, full(1.5)), full(-0.125))
				return []graph.Output{b.Add(v[0], b.Scalar(1)), t}
			},
			core.WhileOpts{Name: "hops"})
		fetches = []graph.Output{outs[0], outs[1]}
	})
	return b, fetches
}

func hopInput(rows, cols int) *tensor.Tensor {
	x := tensor.New(tensor.Float, rows, cols)
	for i := range x.F {
		x.F[i] = math.Sin(float64(i))
	}
	return x
}

func hopFeeds(iters int, s float64) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"limit": tensor.Scalar(float64(iters)), "s": tensor.Scalar(s)}
}

// newTensorHopTCP runs the hop loop on workers wA and wB, one device each.
func newTensorHopTCP(t testing.TB, x *tensor.Tensor) *TCPCluster {
	t.Helper()
	b, fetches := buildTensorHopLoop([]string{"wA", "wB"}, x)
	tc, err := newTestCluster(t, true, b, fetches, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// TestOwnershipMoveLocalVsNetBitIdentical: the same partitioned loop with
// both devices on one worker (the hand-off stays in the worker's local
// rendezvous tables and the buffer itself changes hands) and with a worker
// per device (rendezvous.Net: encoded, recycled, decoded into a pool buffer)
// must fetch the same bits, step after step. It runs in the race matrix at
// GOMAXPROCS 1/2/4: a buffer recycled while a reference survived would
// show as a race or as a wrong value here.
func TestOwnershipMoveLocalVsNetBitIdentical(t *testing.T) {
	x := hopInput(32, 48)
	steps := make([]map[string]*tensor.Tensor, 20)
	for i := range steps {
		steps[i] = hopFeeds(1+i%6, 0.5+0.1*float64(i))
	}
	out := runBothLayouts(t, scenario{
		build: func() (*core.Builder, []graph.Output, []*graph.Node) {
			b, fetches := buildTensorHopLoop([]string{"wA", "wB"}, x)
			return b, fetches, nil
		},
		steps: steps,
	})
	for i := range out {
		if out[i][0].ScalarValue() != float64(1+i%6) {
			t.Fatalf("step %d: loop ran %v iterations", i, out[i][0].ScalarValue())
		}
	}
}

// TestTensorHopStepsLeavePoolLevel: steps of 128 KB hops over TCP leave
// tensor_pool_live_bytes where steady state put it. Apart from what a step
// fetches, only fanned-out scalars (the loop counter, the predicate) leave
// the ownership system for the GC, a few dozen bytes a step; one hop buffer
// dropped per step would show as 128 KB.
func TestTensorHopStepsLeavePoolLevel(t *testing.T) {
	tc := newTensorHopTCP(t, hopInput(64, 256))
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := tc.Run(hopFeeds(8, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(10)
	const fetchedPerStep = 64*256*8 + 8 // the final tensor and the counter
	before := poolLive.Value()
	const steps = 40
	run(steps)
	perStep := (poolLive.Value()-before)/steps - fetchedPerStep
	if perStep < 0 || perStep > 1024 {
		t.Fatalf("pool live bytes move by %d a step beyond the fetches: a hop buffer is being dropped or recycled twice", perStep)
	}
}

// BenchmarkTCPClusterHop128K is one cluster_loop step: 8 iterations, 16
// hops of a 128 KB tensor over loopback TCP. B/op is the figure the raw
// frame wire is accountable for (≈ 8.8 MB with gob, < 1 MB since).
func BenchmarkTCPClusterHop128K(b *testing.B) {
	tc := newTensorHopTCP(b, hopInput(64, 256))
	feeds := hopFeeds(8, 1)
	b.SetBytes(16 * 64 * 256 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.Run(feeds); err != nil {
			b.Fatal(err)
		}
	}
}
