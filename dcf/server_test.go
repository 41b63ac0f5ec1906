package dcf

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// serverModel builds score = tanh(x@W1)@W2 over a typed [batch, in]
// placeholder and returns the session plus the fetch. The Tanh runs on a
// simulated device whose compute stream charges stepCost per kernel, so a
// nonzero stepCost slows every step, deterministically saturating the
// batcher's execution slots so requests visibly coalesce.
func serverModel(t *testing.T, in, out int, stepCost time.Duration) (*Session, Tensor) {
	t.Helper()
	g := NewGraph()
	x := g.PlaceholderTyped("x", Float, -1, in)
	w1 := g.Const(GlorotUniform(1, in, in))
	w2 := g.Const(GlorotUniform(2, in, out))
	h := x.MatMul(w1)
	g.WithDevice("slow", func() { h = h.Tanh() })
	y := h.MatMul(w2)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	sess := NewSessionOpts(g, SessionOptions{Devices: []DeviceConfig{{
		Name:       "slow",
		KernelCost: func(string) time.Duration { return stepCost },
	}}})
	t.Cleanup(sess.Close)
	return sess, y
}

func TestServerMatchesUnbatchedCallable(t *testing.T) {
	// 200µs per step: arrivals outpace execution, so the 24 requests must
	// coalesce into far fewer batches.
	sess, y := serverModel(t, 8, 3, 200*time.Microsecond)
	srv, err := NewServer(sess, CallableSpec{Feeds: []string{"x"}, Fetches: []Tensor{y}},
		BatchOptions{MaxBatchSize: 16, MaxQueueDelay: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 24
	inputs := make([]*Value, n)
	for i := range inputs {
		inputs[i] = RandNormal(uint64(i+1), 0, 1, 1, 8)
	}
	// Ground truth through the direct, unbatched path.
	want := make([]*Value, n)
	for i, in := range inputs {
		out, err := srv.Callable().Call(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out[0]
	}
	// Same inputs through the batching layer, concurrently.
	var wg sync.WaitGroup
	got := make([]*Value, n)
	errs := make([]error, n)
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := srv.Predict(context.Background(), inputs[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = out[0]
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !AllClose(want[i], got[i], 1e-12) {
			t.Fatalf("request %d: batched result differs from unbatched:\n%v\nvs\n%v", i, got[i], want[i])
		}
	}
	s := srv.Stats()
	if s.BatchedRequests != n {
		t.Fatalf("served %d of %d requests: %+v", s.BatchedRequests, n, s)
	}
	if s.Batches > n/2 {
		t.Fatalf("no real coalescing: %d batches for %d requests (stats %+v)", s.Batches, n, s)
	}
}

func TestServerRejectsBadFeedAtEnqueue(t *testing.T) {
	sess, y := serverModel(t, 4, 2, 0)
	srv, err := sess.MakeBatchedCallable(CallableSpec{Feeds: []string{"x"}, Fetches: []Tensor{y}},
		BatchOptions{MaxQueueDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Wrong trailing dim: the typed placeholder rejects it by name, and
	// the error is classifiable as the client's fault.
	_, err = srv.Predict(context.Background(), Zeros(1, 5))
	if err == nil || !strings.Contains(err.Error(), `placeholder "x"`) {
		t.Fatalf("want enqueue-time rejection naming the placeholder, got %v", err)
	}
	if !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("validation failure should wrap ErrInvalidRequest, got %v", err)
	}
	// Wrong dtype.
	_, err = srv.Predict(context.Background(), FromInts([]int64{1, 2, 3, 4}, 1, 4))
	if err == nil || !strings.Contains(err.Error(), "dtype") {
		t.Fatalf("want dtype rejection, got %v", err)
	}
	// Wrong arity.
	_, err = srv.Predict(context.Background(), Zeros(1, 4), Zeros(1, 4))
	if err == nil || !strings.Contains(err.Error(), "takes 1 feeds") {
		t.Fatalf("want arity rejection, got %v", err)
	}
	// Healthy requests still served after rejections.
	if _, err := srv.Predict(context.Background(), Zeros(1, 4)); err != nil {
		t.Fatalf("healthy request after rejections: %v", err)
	}
	if s := srv.Stats(); s.Rejected != 3 || s.Errors != 0 {
		t.Fatalf("stats after rejections: %+v", s)
	}
}

func TestServerCancellation(t *testing.T) {
	// 30ms steps keep the slot busy long enough to cancel mid-wait.
	sess, y := serverModel(t, 4, 2, 30*time.Millisecond)
	srv, err := NewServer(sess, CallableSpec{Feeds: []string{"x"}, Fetches: []Tensor{y}},
		BatchOptions{MaxBatchSize: 64, MaxQueueDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Predict(ctx, Zeros(1, 4))
		done <- err
	}()
	// Cancel once the batcher holds the request: queued for its 30ms batch
	// window, or in the batch it formed.
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		if s := srv.Stats(); s.Queued+s.InFlightBatches > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the request never reached the batcher")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Predict never returned")
	}
	// A healthy neighbor enqueued afterward still completes.
	if _, err := srv.Predict(context.Background(), Zeros(1, 4)); err != nil {
		t.Fatalf("healthy request after cancellation: %v", err)
	}
}

func TestServerMultiFeedMultiFetch(t *testing.T) {
	g := NewGraph()
	a := g.PlaceholderTyped("a", Float, -1, 2)
	b := g.PlaceholderTyped("b", Float, -1, 2)
	sum := a.Add(b)
	diff := a.Sub(b)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(g)
	srv, err := NewServer(sess, CallableSpec{Feeds: []string{"a", "b"}, Fetches: []Tensor{sum, diff}},
		BatchOptions{MaxBatchSize: 8, MaxQueueDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := float64(i)
			out, err := srv.Predict(context.Background(),
				FromFloats([]float64{v, v}, 1, 2), FromFloats([]float64{1, 2}, 1, 2))
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			if out[0].F[0] != v+1 || out[0].F[1] != v+2 {
				t.Errorf("req %d: sum wrong: %v", i, out[0])
			}
			if out[1].F[0] != v-1 || out[1].F[1] != v-2 {
				t.Errorf("req %d: diff wrong: %v", i, out[1])
			}
		}(i)
	}
	wg.Wait()
}

func TestServerClosePredictFails(t *testing.T) {
	sess, y := serverModel(t, 4, 2, 0)
	srv, err := NewServer(sess, CallableSpec{Feeds: []string{"x"}, Fetches: []Tensor{y}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.Predict(context.Background(), Zeros(1, 4)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("want ErrServerClosed, got %v", err)
	}
}

func TestServerNeedsFeeds(t *testing.T) {
	g := NewGraph()
	c := g.Const(Zeros(1, 2))
	sess := NewSession(g)
	if _, err := NewServer(sess, CallableSpec{Fetches: []Tensor{c}}, BatchOptions{}); err == nil {
		t.Fatal("a feedless server spec should be rejected")
	}
}

func TestServerRejectsFixedLeadingDim(t *testing.T) {
	// A [1,d]-typed placeholder would validate solo requests but fail any
	// batch that actually coalesces; NewServer must refuse it up front.
	g := NewGraph()
	x := g.PlaceholderTyped("x", Float, 1, 4)
	y := x.Square()
	sess := NewSession(g)
	_, err := NewServer(sess, CallableSpec{Feeds: []string{"x"}, Fetches: []Tensor{y}}, BatchOptions{})
	if err == nil || !strings.Contains(err.Error(), "fixed leading dim") {
		t.Fatalf("want fixed-leading-dim rejection, got %v", err)
	}
	// Untyped and [-1,...]-typed placeholders are fine.
	g2 := NewGraph()
	x2 := g2.PlaceholderTyped("x", Float, -1, 4)
	y2 := x2.Square()
	srv, err := NewServer(NewSession(g2), CallableSpec{Feeds: []string{"x"}, Fetches: []Tensor{y2}}, BatchOptions{})
	if err != nil {
		t.Fatalf("batch-axis spec rejected: %v", err)
	}
	srv.Close()
}
