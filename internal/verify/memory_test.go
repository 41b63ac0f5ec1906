package verify_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/verify"
)

func estimate(t *testing.T, g *graph.Graph, opts verify.Options) *verify.MemEstimate {
	t.Helper()
	est, ds := verify.EstimateMemory(g, opts)
	if est == nil {
		t.Fatalf("no estimate: %v", ds.Err())
	}
	return est
}

// A straight chain: [4,4] const -> Square -> Sum. The peak is at Square,
// where both the const's output (being consumed) and Square's own output
// (being produced) are resident: 2 x 128 B.
func TestEstimateMemoryLinearChain(t *testing.T) {
	b := newGB(t)
	c := b.constF("c", make([]float64, 16), 4, 4)
	sq := b.node("Square", "sq", 1, nil, c.Out(0))
	b.node("Sum", "sum", 1, nil, sq.Out(0))

	est := estimate(t, b.g, verify.Options{})
	if est.FixedBytes != 256 {
		t.Fatalf("peak = %d, want 256 (%+v)", est.FixedBytes, est.Nodes)
	}
	if !est.Finite() {
		t.Fatalf("fully static chain should be finite: %s", est)
	}
	if est.PeakOp != "Square" {
		t.Fatalf("peak at %s (%s), want the Square node", est.PeakNode, est.PeakOp)
	}
}

// An unknown (batch) dimension becomes a symbolic per-row coefficient:
// Placeholder [-1,4] -> Square has 32 B/row live for each of the two
// values at the peak, and Bound resolves rows.
func TestEstimateMemoryPerRow(t *testing.T) {
	b := newGB(t)
	ph := b.node("Placeholder", "x", 1, map[string]any{
		"dtype": int(tensor.Float), "shape": []int{-1, 4},
	})
	b.node("Square", "sq", 1, nil, ph.Out(0))

	est := estimate(t, b.g, verify.Options{})
	if est.Finite() {
		t.Fatalf("unknown dim must yield a symbolic bound: %s", est)
	}
	if est.PerRowBytes != 64 {
		t.Fatalf("per-row = %d, want 64 (%s)", est.PerRowBytes, est)
	}
	if got := 10 * est.PerRowBytes; got != 640 {
		t.Fatalf("10 rows add %d B, want 640", got)
	}
}

// buildLoop wires the canonical while-loop skeleton around a scalar float:
// Enter -> Merge -> [pred] -> Switch -> (NextIteration | Exit).
func buildLoop(t *testing.T, parallel int) *graph.Graph {
	b := newGB(t)
	init := b.constF("init", []float64{0})
	attrs := map[string]any{"frame_name": "f"}
	if parallel > 0 {
		attrs["parallel_iterations"] = parallel
	}
	enter := b.node("Enter", "enter", 1, attrs, init.Out(0))
	merge := b.node("Merge", "merge", 1, nil, enter.Out(0), enter.Out(0))
	limit := b.constF("limit", []float64{8})
	pred := b.node("Less", "pred", 1, nil, merge.Out(0), limit.Out(0))
	lc := b.node("LoopCond", "lc", 1, nil, pred.Out(0))
	sw := b.node("Switch", "sw", 2, nil, merge.Out(0), lc.Out(0))
	one := b.constF("one", []float64{1})
	add := b.node("Add", "add", 1, nil, sw.Out(1), one.Out(0))
	ni := b.node("NextIteration", "ni", 1, nil, add.Out(0))
	merge.ReplaceInput(1, ni.Out(0))
	b.node("Exit", "exit", 1, nil, sw.Out(0))
	return b.g
}

// The frame's iteration window multiplies in-frame residency: the same
// loop with parallel_iterations=4 must bound strictly higher than with a
// window of 1, and the Enter's attribute must be the window.
func TestEstimateMemoryLoopWindow(t *testing.T) {
	serial := estimate(t, buildLoop(t, 1), verify.Options{})
	wide := estimate(t, buildLoop(t, 4), verify.Options{})
	if wide.FixedBytes <= serial.FixedBytes {
		t.Fatalf("window-4 peak %d should exceed window-1 peak %d", wide.FixedBytes, serial.FixedBytes)
	}
	var window int
	for _, nm := range wide.Nodes {
		if nm.Op == "Merge" {
			window = nm.Window
		}
	}
	if window != 4 {
		t.Fatalf("in-frame window = %d, want 4 from parallel_iterations", window)
	}
}

// A loop that declares no window is bounded at the window the executor
// runs it at: the same bound, table included, as the loop declaring
// exec.DefaultParallelIterations.
func TestEstimateMemoryUndeclaredWindowIsExecutors(t *testing.T) {
	undeclared := estimate(t, buildLoop(t, 0), verify.Options{})
	declared := estimate(t, buildLoop(t, exec.DefaultParallelIterations), verify.Options{})
	if !reflect.DeepEqual(undeclared, declared) {
		t.Fatalf("undeclared window bounds %s, declared %d bounds %s", undeclared, exec.DefaultParallelIterations, declared)
	}
	for _, nm := range undeclared.Nodes {
		if nm.Op == "Merge" && nm.Window != exec.DefaultParallelIterations {
			t.Fatalf("in-frame window = %d, want exec.DefaultParallelIterations = %d", nm.Window, exec.DefaultParallelIterations)
		}
	}
}

// Tensor-array element storage is step-resident: size 4 of [2,2] float
// elements is 4*4*8 = 128 B on top of every node's transient residency.
func TestEstimateMemoryTensorArray(t *testing.T) {
	b := newGB(t)
	size := b.constI("size", 4)
	ta := b.node("TensorArray", "ta", 2, nil, size.Out(0))
	ix := b.constI("ix", 0)
	val := b.constF("val", make([]float64, 4), 2, 2)
	b.node("TensorArrayWrite", "w", 1, nil, ta.Out(0), ix.Out(0), val.Out(0), ta.Out(1))

	est := estimate(t, b.g, verify.Options{})
	if est.StepBytes != 128 {
		t.Fatalf("step-resident = %d, want 128 (%s)", est.StepBytes, est)
	}
}

// A loop-carried value that grows each iteration has no static size: the
// Merge joins its [4] entry with the [8] the first iteration feeds back, so
// the carried value and everything in the loop costs per row, not the 32 B
// of its first iteration.
func TestEstimateMemoryGrowingLoopIsNotFinite(t *testing.T) {
	b := newGB(t)
	init := b.constF("init", make([]float64, 4), 4)
	enter := b.node("Enter", "enter", 1, map[string]any{"frame_name": "f"}, init.Out(0))
	merge := b.node("Merge", "merge", 1, nil, enter.Out(0), enter.Out(0))
	pred := b.constB("pred", true)
	lc := b.node("LoopCond", "lc", 1, nil, pred.Out(0))
	sw := b.node("Switch", "sw", 2, nil, merge.Out(0), lc.Out(0))
	tail := b.constF("tail", make([]float64, 4), 4)
	grown := b.node("Concat", "grown", 1, map[string]any{"axis": 0}, sw.Out(1), tail.Out(0))
	ni := b.node("NextIteration", "ni", 1, nil, grown.Out(0))
	merge.ReplaceInput(1, ni.Out(0))
	b.node("Exit", "exit", 1, nil, sw.Out(0))

	est := estimate(t, b.g, verify.Options{})
	if est.Finite() {
		t.Fatalf("a loop whose carried value grows each iteration must not bound finitely: %s", est)
	}
}

// Diagnostics come back sorted by (node, port, code) regardless of the
// order the passes discovered them — pinned so CI failures diff cleanly.
func TestDiagnosticsDeterministicOrder(t *testing.T) {
	b := newGB(t)
	// Two unknown ops with names in reverse discovery order, plus an
	// arity violation, produce diagnostics from different passes.
	zzz := b.node("NoSuchOpZ", "zzz", 1, nil)
	b.node("NoSuchOpA", "aaa", 1, nil)
	b.node("Add", "add", 1, nil, zzz.Out(0)) // input-arity: Add wants 2

	ds := verify.Check(b.g, verify.Options{})
	if len(ds) < 3 {
		t.Fatalf("want >= 3 diagnostics, got %v", ds)
	}
	if !sort.SliceIsSorted(ds, func(i, j int) bool {
		a, c := ds[i], ds[j]
		if a.Node != c.Node {
			return a.Node < c.Node
		}
		if a.Port != c.Port {
			return a.Port < c.Port
		}
		return a.Code <= c.Code
	}) {
		t.Fatalf("diagnostics not sorted by (node, port, code): %v", ds)
	}
	if ds[0].Node != "aaa" {
		t.Fatalf("first diagnostic is %q, want node aaa", ds[0].Node)
	}
}
