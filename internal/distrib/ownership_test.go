package distrib

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

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

func newTensorHopTCP(t testing.TB, x *tensor.Tensor) *TCPCluster {
	_, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	b, fetches := buildTensorHopLoop([]string{"wA", "wB"}, x)
	tc, err := fleet.NewCluster(b, fetches, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.Close() })
	return tc
}

// TestOwnershipMoveLocalVsNetBitIdentical: the same partitioned loop over
// the in-process rendezvous.Local (the buffer itself changes hands) and
// over rendezvous.Net (encoded, recycled, decoded into a pool buffer) must
// fetch the same bits, step after step. It runs in the race matrix at
// GOMAXPROCS 1/2/4: a buffer recycled while a reference survived would
// show as a race or as a wrong value here.
func TestOwnershipMoveLocalVsNetBitIdentical(t *testing.T) {
	x := hopInput(32, 48)
	b, fetches := buildTensorHopLoop([]string{"wA", "wB"}, x)
	local, err := NewCluster(b, fetches, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tcp := newTensorHopTCP(t, x)
	for step := 0; step < 20; step++ {
		feeds := hopFeeds(1+step%6, 0.5+0.1*float64(step))
		want, err := local.Run(feeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tcp.Run(feeds)
		if err != nil {
			t.Fatal(err)
		}
		if want[0].ScalarValue() != float64(1+step%6) {
			t.Fatalf("step %d: loop ran %v iterations", step, want[0].ScalarValue())
		}
		for i := range want[1].F {
			if math.Float64bits(want[1].F[i]) != math.Float64bits(got[1].F[i]) {
				t.Fatalf("step %d element %d: Local %v, Net %v", step, i, want[1].F[i], got[1].F[i])
			}
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
	before := tensor.PoolLiveBytes()
	const steps = 40
	run(steps)
	perStep := (tensor.PoolLiveBytes()-before)/steps - fetchedPerStep
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
