package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestRunCanceledBeforeStart(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 10, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, err := New(Config{Graph: b.g, Fetches: []graph.Output{exit}, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunCanceledMidLoop(t *testing.T) {
	// A loop far too long to finish within the test: cancellation must
	// stop it promptly, with the dispatcher noticing cancel from inside
	// the inline path (loop bookkeeping never touches the events channel).
	b := newTB(t)
	exit := buildCounterLoop(b, 1e12, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	ex, err := New(Config{Graph: b.g, Fetches: []graph.Output{exit}, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := ex.Run()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // dcfvet:allow testsleep=stage the run mid-flight before cancel
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

func TestRunDeadlineExceeded(t *testing.T) {
	b := newTB(t)
	exit := buildCounterLoop(b, 1e12, 1, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ex, err := New(Config{Graph: b.g, Fetches: []graph.Output{exit}, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ex.Run()
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
	ex, err := New(Config{
		Graph:      b.g,
		Fetches:    []graph.Output{recv.Out(0)},
		Ctx:        ctx,
		Rendezvous: blockingRendezvous{},
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ex.Run()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // dcfvet:allow testsleep=stage the run mid-flight before cancel
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return: pending Recv was not released by cancel")
	}
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
	ex := newDear(t, Config{Graph: b.g, Fetches: []graph.Output{cur}, Ctx: ctx})
	_, err := ex.Run()
	if !errors.Is(err, ctx.Err()) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want an error wrapping %v, got %v", ctx.Err(), err)
	}
	if ex.pool != nil || ex.events != nil {
		t.Fatalf("the chain left the dispatcher (pool %v, channel %v): the deadline did not pass inside a kept kernel", ex.pool, ex.events)
	}
	if ran := ex.NumKernels(); ran >= 401 {
		t.Fatalf("all %d nodes were scheduled: the deadline never stopped the step", ran)
	}
	awaitGoroutines(t, before)
}

// blockingRendezvous never produces a value; Recv honors only the cancel
// channel, standing in for a peer that never sends.
type blockingRendezvous struct{}

func (blockingRendezvous) Send(key string, t Token) error { return nil }

func (blockingRendezvous) Recv(key string, cancel <-chan struct{}) (Token, error) {
	<-cancel
	return Token{}, errors.New("rendezvous: canceled")
}
