package exec

import (
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func benchNode(b testing.TB, g *graph.Graph, op string, attrs map[string]any, ins ...graph.Output) *graph.Node {
	b.Helper()
	arity, err := ops.OutputArity(op, attrs)
	if err != nil {
		b.Fatal(err)
	}
	n, err := g.AddNode(graph.NodeArgs{Op: op, Inputs: ins, Attrs: attrs, NumOutputs: arity})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// buildBenchLoop constructs the canonical counter loop (i = 0; while i <
// limit { i += 1 }) used by the token-overhead benchmarks.
func buildBenchLoop(b *testing.B, g *graph.Graph, limit float64, par int) graph.Output {
	scalar := func(v float64) graph.Output {
		return benchNode(b, g, "Const", map[string]any{"value": tensor.Scalar(v)}).Out(0)
	}
	frame := map[string]any{"frame_name": "bench", "parallel_iterations": par}
	frameConst := map[string]any{"frame_name": "bench", "parallel_iterations": par, "is_constant": true}
	enterI := benchNode(b, g, "Enter", frame, scalar(0))
	limE := benchNode(b, g, "Enter", frameConst, scalar(limit))
	oneE := benchNode(b, g, "Enter", frameConst, scalar(1))
	merge := benchNode(b, g, "Merge", nil, enterI.Out(0), enterI.Out(0))
	less := benchNode(b, g, "Less", nil, merge.Out(0), limE.Out(0))
	cond := benchNode(b, g, "LoopCond", nil, less.Out(0))
	sw := benchNode(b, g, "Switch", nil, merge.Out(0), cond.Out(0))
	add := benchNode(b, g, "Add", nil, sw.Out(1), oneE.Out(0))
	ni := benchNode(b, g, "NextIteration", nil, add.Out(0))
	merge.ReplaceInput(1, ni.Out(0))
	exit := benchNode(b, g, "Exit", nil, sw.Out(0))
	return exit.Out(0)
}

// BenchmarkLoopTokenOverhead measures per-iteration executor bookkeeping on
// a tight while-loop: one Add kernel per iteration plus the full
// Merge/Less/LoopCond/Switch/NextIteration token cycle. ns/op and allocs/op
// are per loop iteration (the whole run executes b.N iterations), so this
// is the regression guard for the dynamic-dataflow hot path; ns/node is per
// node execution.
func BenchmarkLoopTokenOverhead(b *testing.B) { benchLoop(b, DefaultParallelIterations) }

// BenchmarkLoopTokenOverheadWindow1 is the same loop with a serialized
// window (parallel_iterations=1), exercising the deferred-NextIteration and
// iteration-recycling paths every single iteration.
func BenchmarkLoopTokenOverheadWindow1(b *testing.B) { benchLoop(b, 1) }

func benchLoop(b *testing.B, par int) {
	g := graph.New()
	exit := buildBenchLoop(b, g, float64(b.N), par)
	plan, err := NewPlan(g, PlanOptions{Fetches: []graph.Output{exit}})
	if err != nil {
		b.Fatal(err)
	}
	nodes := metricKernels.Value()
	b.ReportAllocs()
	b.ResetTimer()
	out, _, err := plan.Run(Binding{})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(metricKernels.Value()-nodes, 1)), "ns/node")
	if got := out[0].T.ScalarValue(); got != float64(b.N) {
		b.Fatalf("loop result %v, want %v", got, b.N)
	}
}

// buildTwoChains builds two independent chains of `depth` n x n MatMuls over
// one input, joined by an Add: the smallest graph with parallelism worth
// having. Generic over testing.TB so the tier-1 test and the benchmark share
// it.
func buildTwoChains(tb testing.TB, g *graph.Graph, n, depth int) graph.Output {
	tb.Helper()
	// Entries of at most 5/(4n) keep eight products finite and non-zero.
	x := tensor.New(tensor.Float, n, n)
	for i := range x.F {
		x.F[i] = float64((i*7+3)%11-5) / float64(4*n)
	}
	in := benchNode(tb, g, "Const", map[string]any{"value": x}).Out(0)
	var tails [2]graph.Output
	for c := range tails {
		cur := in
		for d := 0; d < depth; d++ {
			cur = benchNode(tb, g, "MatMul", nil, cur, in).Out(0)
		}
		tails[c] = cur
	}
	return benchNode(tb, g, "Add", nil, tails[0], tails[1]).Out(0)
}

// BenchmarkTwoChains is the parallel side of dispatch-by-cost: two chains of
// eight n x n MatMuls, a kernel of about 3 / 8 / 17 / 57 / 135 us at n = 32 /
// 48 / 64 / 96 / 128. Up to n = 64 every kernel is cheaper than a hand-off and
// runs on the dispatcher; from n = 96 the dispatcher keeps one kernel and
// hands the rest off (handed/step says which happened), so -cpu 2 against
// -cpu 1 shows what the hand-off buys. The sizes are handoffCost's sweep.
// ns/op is per step.
func BenchmarkTwoChains(b *testing.B) {
	for _, n := range []int{32, 48, 64, 96, 128} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			g := graph.New()
			plan, err := NewPlan(g, PlanOptions{Fetches: []graph.Output{buildTwoChains(b, g, n, 8)}})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				callPlan(b, plan) // the first step times every kernel on the dispatcher
			}
			handed := metricHandoff.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				callPlan(b, plan)
			}
			b.StopTimer()
			b.ReportMetric(float64(metricHandoff.Value()-handed)/float64(b.N), "handed/step")
		})
	}
}

// BenchmarkPlanReuse measures the fixed cost of one trivial step of a cached
// plan (the repeated-step fast path sessions take).
func BenchmarkPlanReuse(b *testing.B) {
	g := graph.New()
	c := benchNode(b, g, "Const", map[string]any{"value": tensor.Scalar(3)})
	sq := benchNode(b, g, "Square", nil, c.Out(0))
	plan, err := NewPlan(g, PlanOptions{Fetches: []graph.Output{sq.Out(0)}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plan.Run(Binding{}); err != nil {
			b.Fatal(err)
		}
	}
}
