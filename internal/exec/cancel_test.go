package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestRunCanceledBeforeStart(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 10, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.plan(PlanOptions{Fetches: []graph.Output{exit}}).Run(Binding{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// awaitCanceled cancels once the step says it is under way and requires Run
// to return the cancellation promptly.
func awaitCanceled(t *testing.T, started <-chan struct{}, cancel context.CancelFunc, errc <-chan error) {
	t.Helper()
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
}

func TestRunCanceledMidLoop(t *testing.T) {
	// A loop far too long to finish within the test: cancellation must
	// stop it promptly, with the dispatcher noticing cancel from inside
	// the inline path (loop bookkeeping never touches the events channel).
	// The cancel is sent once the body has run.
	b := newTB(t)
	fired, started := signalOnce()
	exit := buildCounterLoopBody(b, 1e12, 1, 0, func(next graph.Output, _ func(graph.Output) graph.Output) graph.Output {
		return b.hook(fired, next).Out(0)
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	plan := b.plan(PlanOptions{Fetches: []graph.Output{exit}})
	go func() {
		_, _, err := plan.Run(Binding{Ctx: ctx})
		errc <- err
	}()
	awaitCanceled(t, started, cancel, errc)
}

func TestRunDeadlineExceeded(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 1e12, 1, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	plan := b.plan(PlanOptions{Fetches: []graph.Output{exit}})
	done := make(chan error, 1)
	go func() {
		_, _, err := plan.Run(Binding{Ctx: ctx})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after deadline")
	}
}

// TestCancelFailsPendingRecv asserts a canceled step releases executors
// blocked in rendezvous Recv (the cross-partition drain path).
func TestCancelFailsPendingRecv(t *testing.T) {
	b := newTB(t)
	recv := b.node("Recv", map[string]any{SendKeyAttr: "never"})
	ctx, cancel := context.WithCancel(context.Background())
	plan := b.plan(PlanOptions{Fetches: []graph.Output{recv.Out(0)}})
	rv := blockingRendezvous{waiting: make(chan struct{})}
	errc := make(chan error, 1)
	go func() {
		_, _, err := plan.Run(Binding{Ctx: ctx, Rendezvous: rv})
		errc <- err
	}()
	awaitCanceled(t, rv.waiting, cancel, errc)
}

// TestCancelInsideKeptKernel: a serial chain of dear kernels never leaves the
// dispatcher (it keeps each link), so nothing but the dispatcher's own poll
// can notice the deadline, and it passes while the dispatcher is inside a
// kernel: 400 MatMuls of 140 us against 2 ms. The kernel finishes, the step
// fails with an error wrapping ctx.Err(), and no goroutine was ever started.
func TestCancelInsideKeptKernel(t *testing.T) {
	before := runtime.NumGoroutine()
	b := newTB(t)
	x := b.constT(filled(0, 128, 128)) // zeros: 400 products stay finite
	cur := x
	for i := 0; i < 400; i++ {
		cur = b.node("MatMul", nil, cur, x).Out(0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	ex := newDear(b, PlanOptions{Fetches: []graph.Output{cur}}).newExecutor(Binding{Ctx: ctx})
	_, err := ex.run()
	if !errors.Is(err, ctx.Err()) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want an error wrapping %v, got %v", ctx.Err(), err)
	}
	if ex.events != nil {
		t.Fatalf("the chain left the dispatcher (channel %v): the deadline did not pass inside a kept kernel", ex.events)
	}
	if ran := ex.numKernels; ran >= 401 {
		t.Fatalf("all %d nodes were scheduled: the deadline never stopped the step", ran)
	}
	awaitGoroutines(t, before)
}

// TestPlanUsableAfterFailedSteps is the contract a free list of executors
// behind Plan.Run will rest on: one plan, three steps in a row — one canceled
// from inside a kernel with handed-off work in flight, one whose kernel
// returns an error, one clean — and the third fetches what a first step of a fresh plan
// does, bit for bit, with every goroutine of the failed steps gone. The kernel
// that cancels or fails reads a buffer with three references, the other two
// held by kernels queued beside it: a failed step recycles nothing it counted,
// so whichever of them still runs reads what it was handed.
func TestPlanUsableAfterFailedSteps(t *testing.T) {
	before := runtime.NumGoroutine()
	var inKernel func() error // what the hook does in the current step
	build := func() *Plan {
		b := newTB(t)
		fetches := buildWideBody(b, 8, 3)
		shared := b.node("Neg", nil, fetches[0]).Out(0)
		gated := b.hook(func() error { return inKernel() }, shared)
		// The hook's chain goes on: kernels are queued behind the failure.
		fetches[0] = b.node("Add", nil, gated.Out(0), fetches[1]).Out(0)
		fetches[2] = b.node("Add", nil, shared, fetches[2]).Out(0)
		fetches[3] = b.node("Mul", nil, shared, fetches[3]).Out(0)
		return newDear(b, PlanOptions{Fetches: fetches})
	}
	plan := build()

	ctx, cancel := context.WithCancel(context.Background())
	inKernel = func() error { cancel(); return nil }
	if _, err := runHandedOff(t, plan, Binding{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("step canceled inside a kernel: want context.Canceled, got %v", err)
	}

	inKernel = func() error { return errors.New("kernel gave up") }
	if _, err := runHandedOff(t, plan, Binding{}); err == nil || !strings.Contains(err.Error(), "kernel gave up") {
		t.Fatalf("step with a failing kernel: got %v", err)
	}

	inKernel = func() error { return nil }
	got, err := runHandedOff(t, plan, Binding{})
	if err != nil {
		t.Fatalf("clean step after two failed ones: %v", err)
	}
	want, err := runHandedOff(t, build(), Binding{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !tensor.Equal(got[i].T, want[i].T) {
			t.Fatalf("fetch %d after two failed steps differs from a fresh plan's first step: %v vs %v", i, got[i].T, want[i].T)
		}
	}
	awaitGoroutines(t, before)
}

// blockingRendezvous never produces a value; Recv closes waiting and then
// honors only the cancel channel, standing in for a peer that never sends.
type blockingRendezvous struct{ waiting chan struct{} }

func (blockingRendezvous) Send(key string, t Token) error { return nil }

func (r blockingRendezvous) Recv(key string, cancel <-chan struct{}) (Token, error) {
	close(r.waiting)
	<-cancel
	return Token{}, errors.New("rendezvous: canceled")
}
