package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// The hand-off tests. A kernel that leaves the dispatcher runs on a goroutine
// of its own, so the pool these tests load is the Go scheduler's: it spreads
// the goroutines over the Ps and steals between them.

// poolVecElems is the length of the vectors the hand-off tests add: a kernel
// of about a microsecond, which only leaves the dispatcher because newDear
// says it costs a second.
const poolVecElems = 1024

// newDear compiles b's graph into a plan that already estimates every node at
// a second, far above handoffCost: each kernel is handed off unless the
// dispatcher keeps it, whatever it really costs. (One execution in
// sampleEvery halves an estimate; none gets near the constant in a test.)
func newDear(b *tb, opts PlanOptions) *Plan {
	b.t.Helper()
	plan := b.plan(opts)
	for i := range plan.cost {
		plan.cost[i].Store(int64(time.Second))
	}
	return plan
}

// runHandedOff runs one step and fails the test unless it handed kernels off
// the dispatcher: a hand-off test that passes with exec_dispatch_handoff_total
// standing still tested the dispatcher.
func runHandedOff(t *testing.T, plan *Plan, bind Binding) ([]ops.Value, error) {
	t.Helper()
	before := metricHandoff.Value()
	out, _, err := plan.Run(bind)
	if metricHandoff.Value() == before {
		t.Fatal("exec_dispatch_handoff_total did not move: no kernel of this step left the dispatcher")
	}
	return out, err
}

func vecConst(b *tb, n int, v float64) graph.Output {
	t := tensor.Alloc(tensor.Float, n)
	for i := range t.F {
		t.F[i] = v
	}
	return b.constT(t)
}

// buildWideBody builds `width` independent chains of `depth` Add kernels over
// one shared input, fetching each chain's tail: with every kernel dear, the
// dispatcher keeps one chain's link and hands the others off at once.
func buildWideBody(b *tb, width, depth int) []graph.Output {
	x := vecConst(b, poolVecElems, 1)
	one := vecConst(b, poolVecElems, 1)
	fetches := make([]graph.Output, width)
	for w := 0; w < width; w++ {
		cur := x
		for d := 0; d < depth; d++ {
			cur = b.node("Add", nil, cur, one).Out(0)
		}
		fetches[w] = cur
	}
	return fetches
}

func TestPoolStealHeavyWideBody(t *testing.T) {
	b := newTB(t)
	fetches := buildWideBody(b, 16, 4)
	out, err := runHandedOff(t, newDear(b, PlanOptions{Fetches: fetches}), Binding{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if got := v.T.F[0]; got != 5 {
			t.Fatalf("chain %d: got %v want 5", i, got)
		}
	}
}

// TestPoolDrainOnFailure fails one kernel among many handed-off ones: the
// step must surface the error, drain every execution in flight, and leave no
// goroutine behind.
func TestPoolDrainOnFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	b := newTB(t)
	fetches := buildWideBody(b, 16, 4)
	// A shape-mismatched Add fails inside its kernel — on a goroutine of its
	// own, unless it is the one kernel the dispatcher keeps — with the chains
	// in flight beside it.
	bad := b.node("Add", nil, vecConst(b, poolVecElems, 1), vecConst(b, poolVecElems-1, 1))
	fetches = append(fetches, bad.Out(0))
	if _, err := runHandedOff(t, newDear(b, PlanOptions{Fetches: fetches}), Binding{}); err == nil || !strings.Contains(err.Error(), "Add") {
		t.Fatalf("want Add kernel error, got %v", err)
	}
	awaitGoroutines(t, before)
}

// TestPoolCancelMidSteal cancels a step while handed-off kernels are in
// flight: Run must return the cancellation error and every goroutine the step
// started must exit with it.
func TestPoolCancelMidSteal(t *testing.T) {
	before := runtime.NumGoroutine()
	b := newTB(t)
	// A long loop whose body holds parallel kernel work: per-iteration real
	// kernels ride on the counter via control dependencies, so every
	// iteration hands kernels off. The hook runs after an iteration's four,
	// so kernels have been handed off by the time it fires.
	fired, started := signalOnce()
	exit := buildCounterLoopBody(b, 1e9, 1, 1, func(next graph.Output, constant func(graph.Output) graph.Output) graph.Output {
		vec := constant(vecConst(b, poolVecElems, 1))
		gate := b.hook(fired, next)
		for i := 0; i < 4; i++ {
			gate.AddControlInput(b.node("Add", nil, vec, vec))
		}
		return gate.Out(0)
	})

	ctx, cancel := context.WithCancel(context.Background())
	plan := newDear(b, PlanOptions{Fetches: []graph.Output{exit}})
	handedBefore := metricHandoff.Value()
	errc := make(chan error, 1)
	go func() {
		_, _, err := plan.Run(Binding{Ctx: ctx})
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if metricHandoff.Value() == handedBefore {
		t.Fatal("exec_dispatch_handoff_total did not move: the canceled step never handed a kernel off")
	}
	awaitGoroutines(t, before)
}

// awaitGoroutines waits for the goroutine count to return to (near) the
// baseline; handed-off and spawned executions must all have exited.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestAllInlineStepSpawnsNoPool: a step that hands nothing off starts no
// goroutine and pays for no completion channel. Two ways to be one: every
// kernel is cheaper than a hand-off (a scalar counter loop), or the kernels
// are dear but form a serial chain, which the dispatcher keeps link by link.
func TestAllInlineStepSpawnsNoPool(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 50, 1, 0)
	ex := b.plan(PlanOptions{Fetches: []graph.Output{exit}}).newExecutor(Binding{})
	if _, err := ex.run(); err != nil {
		t.Fatal(err)
	}
	if ex.events != nil {
		t.Fatalf("all-inline step created completion channel %v", ex.events)
	}

	c := newTB(t)
	cur := vecConst(c, poolVecElems, 1)
	for i := 0; i < 7; i++ {
		cur = c.node("Neg", nil, cur).Out(0)
	}
	chain := newDear(c, PlanOptions{Fetches: []graph.Output{cur}}).newExecutor(Binding{})
	handed, spawned := metricHandoff.Value(), metricSpawn.Value()
	out, err := chain.run()
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].T.F[0]; got != -1 {
		t.Fatalf("chain: got %v want -1", got)
	}
	if chain.events != nil || metricHandoff.Value() != handed || metricSpawn.Value() != spawned {
		t.Fatalf("serial chain of dear kernels left the dispatcher: channel %v, %d handed off, %d spawned",
			chain.events, metricHandoff.Value()-handed, metricSpawn.Value()-spawned)
	}
}

// TestEventsBufferUsesFrameWindow is the regression test for the
// events-channel sizing fallback: a cyclic plan whose only frame declares
// parallel_iterations=1 must be provisioned at one slot per node, not
// nodes x the 32-wide default window. The channel is made on the first
// hand-off, so the steps run with every kernel dear.
func TestEventsBufferUsesFrameWindow(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 10, 1, 1) // window 1
	ex := newDear(b, PlanOptions{Fetches: []graph.Output{exit}}).newExecutor(Binding{})
	if ex.events != nil {
		t.Fatal("completion channel exists before anything was handed off")
	}
	if _, err := ex.run(); err != nil {
		t.Fatal(err)
	}
	if got, want := cap(ex.events), b.g.NumNodes(); got != want {
		t.Fatalf("window-1 events buffer %d, want %d (one per node)", got, want)
	}
	// An undeclared window still provisions the default.
	b2 := newTB(t)
	exit2 := buildCounterLoop(b2, 10, 1, 0)
	ex2 := newDear(b2, PlanOptions{Fetches: []graph.Output{exit2}}).newExecutor(Binding{})
	if _, err := ex2.run(); err != nil {
		t.Fatal(err)
	}
	if got, want := cap(ex2.events), b2.g.NumNodes()*DefaultParallelIterations; got != want {
		t.Fatalf("default-window events buffer %d, want %d", got, want)
	}
}
