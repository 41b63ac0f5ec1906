package dcf_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/dcf"
	"repro/internal/metrics"
)

// buildServingGraph returns a session over tanh(x @ W1) @ W2 with x a
// [1,16] placeholder — a small inference-shaped workload.
func buildServingGraph(t testing.TB) (*dcf.Session, dcf.Tensor, *dcf.Value) {
	t.Helper()
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	w1 := g.Const(dcf.RandNormal(1, 0, 0.3, 16, 16))
	w2 := g.Const(dcf.RandNormal(2, 0, 0.3, 16, 4))
	y := x.MatMul(w1).Tanh().MatMul(w2)
	sess := dcf.NewSession(g)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	return sess, y, dcf.RandNormal(3, 0, 1, 1, 16)
}

// TestConcurrentRunAndCallable drives one Session from 12 goroutines at
// once — half through the legacy Run path, half through a shared Callable —
// and checks every result against a single-threaded reference. Run under
// -race in CI, this is the concurrency-safety contract of the redesign.
func TestConcurrentRunAndCallable(t *testing.T) {
	sess, y, x := buildServingGraph(t)
	want, err := sess.Run1(dcf.Feeds{"x": x}, y)
	if err != nil {
		t.Fatal(err)
	}
	callable, err := sess.MakeCallable(dcf.CallableSpec{Feeds: []string{"x"}, Fetches: []dcf.Tensor{y}})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	const steps = 40
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				var got []*dcf.Value
				var err error
				if i%2 == 0 {
					got, err = sess.Run(dcf.Feeds{"x": x}, []dcf.Tensor{y})
				} else {
					got, err = callable.Call(context.Background(), x)
				}
				if err != nil {
					errs <- err
					return
				}
				if !dcf.AllClose(got[0], want, 1e-12) {
					errs <- fmt.Errorf("goroutine %d step %d: wrong value", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentRunCtxMetadata checks the per-run metadata is private to
// each call (the racy LastStats replacement).
func TestConcurrentRunCtxMetadata(t *testing.T) {
	sess, y, x := buildServingGraph(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				_, md, err := sess.RunCtx(context.Background(), dcf.RunOptions{
					Feeds: dcf.Feeds{"x": x}, Fetches: []dcf.Tensor{y},
				})
				if err != nil {
					errs <- err
					return
				}
				if md.Stats.NodesExecuted == 0 || md.Stats.NodesInRun == 0 {
					errs <- fmt.Errorf("empty metadata: %+v", md)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// longLoopSession builds a while loop that counts to 1e12 — far too long
// to finish inside the test — as the cancellation target.
func longLoopSession(t testing.TB) (*dcf.Session, dcf.Tensor) {
	t.Helper()
	g := dcf.NewGraph()
	outs := g.While(
		[]dcf.Tensor{g.Scalar(0)},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(1e12)) },
		func(v []dcf.Tensor) []dcf.Tensor { return []dcf.Tensor{v[0].Add(g.Scalar(1))} },
		dcf.WhileOpts{},
	)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	return dcf.NewSession(g), outs[0]
}

// TestRunCtxCancelPromptAndLeakFree cancels a long-running step and
// asserts (a) RunCtx returns promptly with context.Canceled and (b) the
// goroutine count returns to its pre-run baseline — the executor drains
// rather than leaks.
func TestRunCtxCancelPromptAndLeakFree(t *testing.T) {
	sess, out := longLoopSession(t)
	before := runtime.NumGoroutine()

	// The loop's kernels draw their outputs from the tensor pool, so once
	// its allocation count moves the step is mid-flight.
	reg := metrics.Default()
	hits, misses := reg.Counter("tensor_pool_hits_total"), reg.Counter("tensor_pool_misses_total")
	allocs := hits.Value() + misses.Value()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := sess.RunCtx(ctx, dcf.RunOptions{Fetches: []dcf.Tensor{out}})
		errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); hits.Value()+misses.Value() == allocs; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the step never started running kernels")
		}
	}
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunCtx did not return promptly after cancel")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v", elapsed)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancel: baseline %d, now %d", before, runtime.NumGoroutine())
}

// TestCallableCancel covers the same contract on the pre-compiled path,
// including a context canceled before the call starts.
func TestCallableCancel(t *testing.T) {
	sess, out := longLoopSession(t)
	callable, err := sess.MakeCallable(dcf.CallableSpec{Fetches: []dcf.Tensor{out}})
	if err != nil {
		t.Fatal(err)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := callable.Call(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled call: want context.Canceled, got %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := callable.Call(ctx)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not return after its deadline")
	}
}
