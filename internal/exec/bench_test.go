package exec

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func benchNode(b *testing.B, g *graph.Graph, op string, attrs map[string]any, ins ...graph.Output) *graph.Node {
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
// is the regression guard for the dynamic-dataflow hot path.
func BenchmarkLoopTokenOverhead(b *testing.B) {
	g := graph.New()
	exit := buildBenchLoop(b, g, float64(b.N), DefaultParallelIterations)
	plan, err := NewPlan(g, nil, []graph.Output{exit})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	ex, err := NewFromPlan(plan, Config{})
	if err != nil {
		b.Fatal(err)
	}
	out, err := ex.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := out[0].T.ScalarValue(); got != float64(b.N) {
		b.Fatalf("loop result %v, want %v", got, b.N)
	}
}

// BenchmarkLoopTokenOverheadWindow1 is the same loop with a serialized
// window (parallel_iterations=1), exercising the deferred-NextIteration and
// iteration-recycling paths every single iteration.
func BenchmarkLoopTokenOverheadWindow1(b *testing.B) {
	g := graph.New()
	exit := buildBenchLoop(b, g, float64(b.N), 1)
	plan, err := NewPlan(g, nil, []graph.Output{exit})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	ex, err := NewFromPlan(plan, Config{})
	if err != nil {
		b.Fatal(err)
	}
	out, err := ex.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := out[0].T.ScalarValue(); got != float64(b.N) {
		b.Fatalf("loop result %v, want %v", got, b.N)
	}
}

// buildParallelBody builds a while-loop whose body holds `width`
// independent above-inline elementwise kernels per iteration (the wide-body
// shape whose intra-step parallelism the worker pool exists for): a counter
// branch drives `iters` iterations, and each of the `width` vector states
// is advanced by one real Add kernel per iteration.
func buildParallelBody(b *testing.B, g *graph.Graph, iters, width, elems int) []graph.Output {
	vec := func(v float64) graph.Output {
		t := tensor.Alloc(tensor.Float, elems)
		for i := range t.F {
			t.F[i] = v
		}
		return benchNode(b, g, "Const", map[string]any{"value": t}).Out(0)
	}
	scalar := func(v float64) graph.Output {
		return benchNode(b, g, "Const", map[string]any{"value": tensor.Scalar(v)}).Out(0)
	}
	frame := map[string]any{"frame_name": "wide", "parallel_iterations": 1}
	frameConst := map[string]any{"frame_name": "wide", "parallel_iterations": 1, "is_constant": true}
	enterI := benchNode(b, g, "Enter", frame, scalar(0))
	limE := benchNode(b, g, "Enter", frameConst, scalar(float64(iters)))
	oneE := benchNode(b, g, "Enter", frameConst, scalar(1))
	merge := benchNode(b, g, "Merge", nil, enterI.Out(0), enterI.Out(0))
	less := benchNode(b, g, "Less", nil, merge.Out(0), limE.Out(0))
	cond := benchNode(b, g, "LoopCond", nil, less.Out(0))
	sw := benchNode(b, g, "Switch", nil, merge.Out(0), cond.Out(0))
	add := benchNode(b, g, "Add", nil, sw.Out(1), oneE.Out(0))
	ni := benchNode(b, g, "NextIteration", nil, add.Out(0))
	merge.ReplaceInput(1, ni.Out(0))
	fetches := []graph.Output{benchNode(b, g, "Exit", nil, sw.Out(0)).Out(0)}

	vecOneE := benchNode(b, g, "Enter", frameConst, vec(1))
	for w := 0; w < width; w++ {
		enterV := benchNode(b, g, "Enter", frame, vec(0))
		mergeV := benchNode(b, g, "Merge", nil, enterV.Out(0), enterV.Out(0))
		swV := benchNode(b, g, "Switch", nil, mergeV.Out(0), cond.Out(0))
		addV := benchNode(b, g, "Add", nil, swV.Out(1), vecOneE.Out(0))
		niV := benchNode(b, g, "NextIteration", nil, addV.Out(0))
		mergeV.ReplaceInput(1, niV.Out(0))
		fetches = append(fetches, benchNode(b, g, "Exit", nil, swV.Out(0)).Out(0))
	}
	return fetches
}

// benchParallelBody runs b.N steps of the wide-body loop with the given
// worker setting; ns/op is per step (iters x width real kernels each).
func benchParallelBody(b *testing.B, workers int) {
	const iters, width, elems = 8, 16, 600
	g := graph.New()
	fetches := buildParallelBody(b, g, iters, width, elems)
	plan, err := NewPlan(g, nil, fetches)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := NewFromPlan(plan, Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		out, err := ex.Run()
		if err != nil {
			b.Fatal(err)
		}
		if got := out[1].T.F[0]; got != float64(iters) {
			b.Fatalf("state %v, want %v", got, iters)
		}
	}
	b.StopTimer()
	steps := float64(b.N) * float64(iters)
	b.ReportMetric(steps/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkParallelBody runs the wide loop body on the worker pool: with
// GOMAXPROCS >= 4 persistent workers and batched completions are the
// difference between a dispatcher-bound and a compute-bound step.
func BenchmarkParallelBody(b *testing.B) { benchParallelBody(b, 0) }

// BenchmarkPlanReuse measures the fixed cost of one executor construction +
// trivial run over a cached plan (the repeated-step fast path sessions take).
func BenchmarkPlanReuse(b *testing.B) {
	g := graph.New()
	c := benchNode(b, g, "Const", map[string]any{"value": tensor.Scalar(3)})
	sq := benchNode(b, g, "Square", nil, c.Out(0))
	plan, err := NewPlan(g, nil, []graph.Output{sq.Out(0)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := NewFromPlan(plan, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
