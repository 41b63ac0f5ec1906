package dcf_test

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/dcf"
	"repro/internal/metrics"
)

// poolLive is the buffer pool's live-bytes gauge, as /metrics exports it.
var poolLive = metrics.Default().Gauge("tensor_pool_live_bytes")

// raceBuild is set by race_test.go in a race build.
var raceBuild bool

// TestDispatchCounts pins how many nodes the benchmark's graphs have, where a
// step's node executions run and what a step takes from the heap, as counts off the process metrics registry and the
// runtime's allocation statistics: counts repeat exactly, or nearly, where
// wall-clock on this host drifts by a quarter, so they are what a regression
// gate can hold. A row's numbers are what the named PR left; a change that
// lowers a count lowers its pin in the same diff, one that raises it says why.
// Node executions and blocking-op goroutines are exact. Hand-offs follow
// measured kernel time, which a loaded host can only lengthen, so that column
// is the fewest of five warmed steps against a ceiling: 0 for the rows that
// cannot hand off whatever their kernels cost (a chain keeps every kernel,
// scalar kernels are far below the constant); a training step hands off 0 on
// a quiet host, and on a loaded one the dearest MatMul of its gradient loop
// (23 us quiet), at most once per time step.
func TestDispatchCounts(t *testing.T) {
	reg := metrics.Default()
	nodes, spawned, handed := reg.Counter("exec_kernels_total"), reg.Counter("exec_dispatch_spawn_total"), reg.Counter("exec_dispatch_handoff_total")
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
	serveNodes := g.Builder().G.NumNodes()
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

	// The repo benchmark's loop_dispatch call: a 5000-iteration While whose
	// body is three scalar kernels.
	const iters = 5000
	lg := dcf.NewGraph()
	bias := lg.Placeholder("b")
	n, a := lg.Scalar(iters), lg.Scalar(0.9997)
	loopOuts := lg.While(
		[]dcf.Tensor{lg.Scalar(0), lg.Scalar(1)},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(n) },
		func(v []dcf.Tensor) []dcf.Tensor {
			return []dcf.Tensor{v[0].Add(lg.Scalar(1)), v[1].Mul(a).Add(bias)}
		},
		dcf.WhileOpts{Name: "dispatch"})
	if err := lg.Err(); err != nil {
		t.Fatal(err)
	}
	loopNodes := lg.Builder().G.NumNodes()
	lsess := dcf.NewSession(lg)
	defer lsess.Close()
	loop, err := lsess.MakeCallable(dcf.CallableSpec{Feeds: []string{"b"}, Fetches: loopOuts})
	if err != nil {
		t.Fatal(err)
	}
	feed := dcf.ScalarVal(1.25)

	// Graph sizes, exact: the nodes the builders and autodiff emit for the
	// three graphs, so a change that adds nodes to any of them fails here
	// and says why in the diff that moves the pin.
	for _, row := range []struct {
		name       string
		nodes, pin int
		setBy      string
	}{
		{"rnn_train forward model", rnn.forwardNodes, 74, "nn's LSTM cell and DynamicRNN as built; no pass rewrites a graph after construction"},
		{"rnn_train after Gradients and SGD updates", rnn.trainNodes, 370, "autodiff with one-node Sigmoid and Tanh gradients; the 19 duplicates a CSE pass could merge are kept, no pass runs"},
		{"dcfserve model", serveNodes, 15, "the two-layer scorer as built"},
		{"loop_dispatch graph", loopNodes, 26, "one While of three scalar body kernels as core.Builder emits it"},
	} {
		if row.nodes != row.pin {
			t.Errorf("%s: %d graph nodes (want %d) — set by %s", row.name, row.nodes, row.pin, row.setBy)
		}
	}

	// The split follows measured kernel time, so the hand-off pins hold for
	// kernels at the speed they were set at: the spans of a traced training
	// step summing to under 15 ms (3.6 to 6.4 ms at PR 22, the best of three
	// steps here). Under the race detector a Sigmoid can cost 90 us, and
	// handing it off is the right decision; how far the race build slows the
	// kernels depends on the host, so it is asked, not guessed from the spans.
	spans := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		var sum time.Duration
		for _, e := range rnn.traced().Events() {
			sum += e.End - e.Start
		}
		spans = min(spans, sum)
	}
	atSpeed := !raceBuild && spans < 15*time.Millisecond
	if !atSpeed {
		t.Logf("a training step's spans sum to %v: kernels are not at production speed, hand-off pins not checked", spans)
	}

	for _, row := range []struct {
		name string
		step func()
		// warm is how many steps run first: the first times every node on
		// the dispatcher, the next few let cold first samples settle.
		warm int
		// nodes and spawns are the node executions per step and the
		// executions given a goroutine of their own because they may block;
		// handoffMax caps those given one because they cost more than a
		// hand-off.
		nodes, spawns, handoffMax int64
		setBy                     string
		// What a warmed step takes from the heap and leaves on the pool's
		// live-bytes gauge, each the mean of 50 steps (the collector empties
		// the pool's free lists now and then, so one step says little): heap
		// bytes, heap objects and tensor.Alloc misses are ceilings, the gauge
		// growth — the pool buffers a step leaves with holders, named in
		// TestPoolGaugeNeverSinks — is exact.
		bytesMax, objectsMax, missesMax, gaugeGrowth int64
		heapSetBy                                    string
	}{
		{"rnn_train step", func() { rnn.step() }, 40, 2729, 0, 12, "the one-node Sigmoid and Tanh gradients (2 924 nodes when each was four) and the kernel hand-off by cost (0 handed off quiet, 1 under a parallel go test ./...; ceiling 100 before it, 974 handed off before the dispatcher ran cheap kernels inline)",
			1_500_000, 800, 40, 198_776, "PR 24 (7.1 MB, 2 975 objects, 379 misses and 5.43 MB of gauge growth before it)"},
		{"dcfserve model, 32 rows", func() {
			if _, err := predict.Call(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}, 3, 9, 0, 0, "PR 22 (7 handed off, and a pool built, per call before it)",
			12_000, 30, 1, 32 * classes * 8, "PR 24 (a chain: nothing is counted, nothing moved)"},
		{"loop_dispatch call", func() {
			if _, err := loop.Call(ctx, feed); err != nil {
				t.Fatal(err)
			}
		}, 3, 75_025, 0, 0, "PR 29 (the same three columns at its parent)",
			65_000, 200, 4, 16, "routing nodes and dead exits recorded once per frame (59 KB, 152 objects, 2 misses measured; 208 KB and 324 objects before, 140 KB of it one dead-exit entry per continuing iteration; the two fetched scalars stay on the gauge)"},
	} {
		for i := 0; i < row.warm; i++ {
			row.step()
		}
		fewest := int64(math.MaxInt64)
		for i := 0; i < 5; i++ {
			n0, s0, h0 := nodes.Value(), spawned.Value(), handed.Value()
			row.step()
			n, s := nodes.Value()-n0, spawned.Value()-s0
			fewest = min(fewest, handed.Value()-h0)
			if n != row.nodes || s != row.spawns {
				t.Errorf("%s: %d nodes (want %d), %d spawned (want %d) — set by %s", row.name, n, row.nodes, s, row.spawns, row.setBy)
			}
		}
		t.Logf("%s: %d nodes, %d spawned, %d handed off", row.name, row.nodes, row.spawns, fewest)
		if atSpeed && fewest > row.handoffMax {
			t.Errorf("%s: %d handed off (ceiling %d) — set by %s", row.name, fewest, row.handoffMax, row.setBy)
		}

		const steps = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m0, g0 := misses.Value(), poolLive.Value()
		for i := 0; i < steps; i++ {
			row.step()
		}
		runtime.ReadMemStats(&after)
		bytes, objects := int64(after.TotalAlloc-before.TotalAlloc)/steps, int64(after.Mallocs-before.Mallocs)/steps
		miss, grew := (misses.Value()-m0)/steps, (poolLive.Value()-g0)/steps
		t.Logf("%s: %d heap bytes, %d heap objects, %d pool misses, %d bytes of gauge growth per step", row.name, bytes, objects, miss, grew)
		// Not at speed includes the race detector, under which sync.Pool drops
		// a quarter of what is put back: misses, and the heap behind them, say
		// nothing about the rule there. The gauge does.
		if grew != row.gaugeGrowth || (atSpeed && (bytes > row.bytesMax || objects > row.objectsMax || miss > row.missesMax)) {
			t.Errorf("%s: per step %d heap bytes (ceiling %d), %d heap objects (ceiling %d), %d pool misses (ceiling %d), %d bytes of gauge growth (want %d) — set by %s",
				row.name, bytes, row.bytesMax, objects, row.objectsMax, miss, row.missesMax, grew, row.gaugeGrowth, row.heapSetBy)
		}
	}
}
