package dcf_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/dcf"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// TestDispatchCounts pins where a step's node executions run and what a step
// takes from the heap, as counts off the process metrics registry and the
// runtime's allocation statistics: counts repeat exactly, or nearly, where
// wall-clock on this host drifts by a quarter, so they are what a regression
// gate can hold. A row's ceilings are what the named PR left; a change that
// lowers a count lowers its ceiling in the same diff, one that raises it says
// why. The pool ceiling of the training step is a ceiling and not an equality
// because the split follows measured kernel time: a MatMul that reads above
// the hand-off cost on a noisy host is handed off until its next samples.
func TestDispatchCounts(t *testing.T) {
	reg := metrics.Default()
	nodes, spawned, pooled := reg.Counter("exec_kernels_total"), reg.Counter("exec_dispatch_spawn_total"), reg.Counter("exec_dispatch_pool_total")
	misses := reg.Counter("tensor_pool_misses_total")

	rnn := rnnTrainStep(t)

	// cmd/dcfserve's model at the repo benchmark's shape, one 32-row batch.
	const dim, classes, rows = 256, 16, 32
	g := dcf.NewGraph()
	x := g.PlaceholderTyped("x", dcf.Float, -1, dim)
	w1 := g.Variable("w1", dcf.GlorotUniform(1, dim, dim))
	b1 := g.Variable("b1", dcf.Zeros(dim))
	w2 := g.Variable("w2", dcf.GlorotUniform(2, dim, classes))
	scores := x.MatMul(w1).Add(b1).Tanh().MatMul(w2).Softmax()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	sess := dcf.NewSession(g)
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	predict, err := sess.MakeCallable(dcf.CallableSpec{Feeds: []string{"x"}, Fetches: []dcf.Tensor{scores}})
	if err != nil {
		t.Fatal(err)
	}
	batch := dcf.RandNormal(3, 0, 1, rows, dim)
	ctx := context.Background()

	// The split follows measured kernel time, so the pool ceilings hold for
	// kernels at the speed they were set at: the spans of a traced training
	// step summing to under 15 ms (3.6 to 6.4 ms at PR 22, the best of three
	// steps here). Under the race detector they sum to 50 ms, a Sigmoid
	// costs 90 us, and handing it off is the right decision.
	spans := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		var sum time.Duration
		for _, op := range rnn.traced().ByOp() {
			sum += op.Total
		}
		spans = min(spans, sum)
	}
	atSpeed := spans < 15*time.Millisecond
	if !atSpeed {
		t.Logf("a training step's spans sum to %v: kernels are not at production speed, pool ceilings not checked", spans)
	}

	for _, row := range []struct {
		name string
		step func()
		// warm is how many steps run first: the first times every node on
		// the dispatcher, the next few let cold first samples settle.
		warm int
		// nodes is the exact number of node executions per step; spawnMax
		// and poolMax are ceilings on executions given a goroutine of their
		// own and handed to the worker pool.
		nodes, spawnMax, poolMax int64
		setBy                    string
		// What a warmed step takes from the heap and leaves on the pool's
		// live-bytes gauge, each the mean of 50 steps (the collector empties
		// the pool's free lists now and then, so one step says little): heap
		// bytes, heap objects and tensor.Alloc misses are ceilings, the gauge
		// growth — the pool buffers a step leaves with holders, named in
		// TestPoolGaugeNeverSinks — is exact.
		bytesMax, objectsMax, missesMax, gaugeGrowth int64
		heapSetBy                                    string
	}{
		{"rnn_train step", func() { rnn.step() }, 40, 2924, 0, 100, "PR 22 (974 pooled before it)",
			1_500_000, 800, 40, 198_776, "PR 24 (7.1 MB, 2 975 objects, 379 misses and 5.43 MB of gauge growth before it)"},
		{"dcfserve model, 32 rows", func() {
			if _, err := predict.Call(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}, 3, 9, 0, 0, "PR 22 (7 pooled, and a pool built, per call before it)",
			12_000, 30, 1, 32 * classes * 8, "PR 24 (a chain: nothing is counted, nothing moved)"},
	} {
		for i := 0; i < row.warm; i++ {
			row.step()
		}
		n0, s0, p0 := nodes.Value(), spawned.Value(), pooled.Value()
		row.step()
		n, s, p := nodes.Value()-n0, spawned.Value()-s0, pooled.Value()-p0
		t.Logf("%s: %d nodes, %d spawned, %d pooled", row.name, n, s, p)
		if n != row.nodes || s > row.spawnMax || (atSpeed && p > row.poolMax) {
			t.Errorf("%s: %d nodes (want %d), %d spawned (ceiling %d), %d pooled (ceiling %d) — set by %s",
				row.name, n, row.nodes, s, row.spawnMax, p, row.poolMax, row.setBy)
		}

		const steps = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m0, g0 := misses.Value(), tensor.PoolLiveBytes()
		for i := 0; i < steps; i++ {
			row.step()
		}
		runtime.ReadMemStats(&after)
		bytes, objects := int64(after.TotalAlloc-before.TotalAlloc)/steps, int64(after.Mallocs-before.Mallocs)/steps
		miss, grew := (misses.Value()-m0)/steps, (tensor.PoolLiveBytes()-g0)/steps
		t.Logf("%s: %d heap bytes, %d heap objects, %d pool misses, %d bytes of gauge growth per step", row.name, bytes, objects, miss, grew)
		// Not at speed means the race detector, under which sync.Pool drops a
		// quarter of what is put back: misses, and the heap behind them, say
		// nothing about the rule there. The gauge does.
		if grew != row.gaugeGrowth || (atSpeed && (bytes > row.bytesMax || objects > row.objectsMax || miss > row.missesMax)) {
			t.Errorf("%s: per step %d heap bytes (ceiling %d), %d heap objects (ceiling %d), %d pool misses (ceiling %d), %d bytes of gauge growth (want %d) — set by %s",
				row.name, bytes, row.bytesMax, objects, row.objectsMax, miss, row.missesMax, grew, row.gaugeGrowth, row.heapSetBy)
		}
	}
}
