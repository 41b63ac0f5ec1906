package exec

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// slowRunner sleeps per Square kernel and tracks concurrency.
type slowRunner struct {
	cur     int32
	maxSeen int32
}

func (r *slowRunner) RunKernel(node, op string, fn func()) {
	if op == "Square" {
		c := atomic.AddInt32(&r.cur, 1)
		for {
			m := atomic.LoadInt32(&r.maxSeen)
			if c <= m || atomic.CompareAndSwapInt32(&r.maxSeen, m, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // dcfvet:allow testsleep=simulated kernel latency
		atomic.AddInt32(&r.cur, -1)
	}
	fn()
}

// TestParallelWindowEnforced builds a two-stage pipeline (stage B consumes
// stage A's same-iteration output). With window=1, iteration k+1 cannot
// start until k retires, so at most one slow kernel runs at a time; with a
// larger window, A(k+1) overlaps B(k). The window is what the frame's Enters
// declare; a frame whose Enters declare none runs at
// DefaultParallelIterations.
func TestParallelWindowEnforced(t *testing.T) {
	run := func(declared int) (int32, time.Duration) {
		b := newTB(t)
		frame := map[string]any{"frame_name": "w", "parallel_iterations": declared}
		frameConst := map[string]any{"frame_name": "w", "parallel_iterations": declared, "is_constant": true}
		enterI := b.node("Enter", frame, b.scalar(0))
		enterA := b.node("Enter", frame, b.scalar(0.5))
		enterB := b.node("Enter", frame, b.scalar(0.5))
		limE := b.node("Enter", frameConst, b.scalar(8))
		oneE := b.node("Enter", frameConst, b.scalar(1))
		mI := b.node("Merge", nil, enterI.Out(0), enterI.Out(0))
		mA := b.node("Merge", nil, enterA.Out(0), enterA.Out(0))
		mB := b.node("Merge", nil, enterB.Out(0), enterB.Out(0))
		less := b.node("Less", nil, mI.Out(0), limE.Out(0))
		cond := b.node("LoopCond", nil, less.Out(0))
		swI := b.node("Switch", nil, mI.Out(0), cond.Out(0))
		swA := b.node("Switch", nil, mA.Out(0), cond.Out(0))
		swB := b.node("Switch", nil, mB.Out(0), cond.Out(0))
		outA := b.node("Square", nil, swA.Out(1))  // stage A (slow)
		outB := b.node("Square", nil, outA.Out(0)) // stage B (slow), consumes A
		niI := b.node("NextIteration", nil, b.node("Add", nil, swI.Out(1), oneE.Out(0)).Out(0))
		niA := b.node("NextIteration", nil, outA.Out(0))
		niB := b.node("NextIteration", nil, outB.Out(0))
		mI.ReplaceInput(1, niI.Out(0))
		mA.ReplaceInput(1, niA.Out(0))
		mB.ReplaceInput(1, niB.Out(0))
		exI := b.node("Exit", nil, swI.Out(0))
		exB := b.node("Exit", nil, swB.Out(0))
		_ = exI
		r := &slowRunner{}
		plan := b.plan(PlanOptions{Fetches: []graph.Output{exB.Out(0)}, Runner: func(string) Runner { return r }})
		want := declared
		if want == 0 {
			want = DefaultParallelIterations
		}
		if got := plan.frames[0].parallel; got != want {
			t.Fatalf("Enters declare %d: plan resolved window %d, want %d", declared, got, want)
		}
		start := time.Now()
		if _, _, err := plan.Run(Binding{}); err != nil {
			t.Fatal(err)
		}
		return r.maxSeen, time.Since(start)
	}
	if got, _ := run(0); got < 2 {
		t.Fatalf("Enters declare no window, so it is DefaultParallelIterations: stages should overlap, saw %d", got)
	}
	max1, d1 := run(1)
	max8, d8 := run(8)
	t.Logf("par=1: maxConcurrent=%d dur=%v; par=8: maxConcurrent=%d dur=%v", max1, d1, max8, d8)
	if max1 != 1 {
		t.Fatalf("window=1 must serialize slow kernels, saw %d concurrent", max1)
	}
	if max8 < 2 {
		t.Fatalf("window=8 should overlap stages across iterations, saw %d", max8)
	}
	if d8 >= d1 {
		t.Fatalf("pipelining did not reduce wall time: %v vs %v", d8, d1)
	}
}
