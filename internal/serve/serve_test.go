package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// echoCall is a CallFunc that returns its (single) stacked feed as the
// fetch, recording every batch's shape.
func echoCall(batches *[][]int, mu *sync.Mutex) CallFunc {
	return func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if mu != nil {
			mu.Lock()
			*batches = append(*batches, args[0].Shape())
			mu.Unlock()
		}
		return []*tensor.Tensor{args[0]}, nil
	}
}

// gatedEcho is echoCall blocking each batch execution until a token
// arrives on gate — the tests' handle on executor saturation: while a
// batch sits in the call, the (single) execution slot is busy, so later
// requests must queue and batch instead of flushing eagerly.
func gatedEcho(gate chan struct{}, batches *[][]int, mu *sync.Mutex) CallFunc {
	inner := echoCall(batches, mu)
	return func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		<-gate
		return inner(ctx, args)
	}
}

// rowN returns a [1,n] float tensor filled with v.
func rowN(n int, v float64) *tensor.Tensor {
	data := make([]float64, n)
	for i := range data {
		data[i] = v
	}
	return tensor.FromFloats(data, 1, n)
}

// row returns a [1,2] float tensor carrying v.
func row(v float64) *tensor.Tensor { return rowN(2, v) }

// waitFormed polls until the batcher has cut n batches that are still
// in flight (formed but unfinished).
func waitFormed(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		f := b.formed
		b.mu.Unlock()
		if f == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("formed never reached %d (at %d)", n, f)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitQueued polls until n requests sit in buckets.
func waitQueued(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		q := b.queued
		b.mu.Unlock()
		if q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued never reached %d (at %d)", n, q)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// saturate occupies the batcher's (single) execution slot with a
// sacrificial width-w request that blocks until a gate token arrives.
func saturate(t *testing.T, b *Batcher, w int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.Do(context.Background(), rowN(w, 99)); err != nil {
			t.Errorf("sacrificial request: %v", err)
		}
	}()
	waitFormed(t, b, 1)
	return &wg
}

func TestEagerFlushWhenExecutorIdle(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	// Huge delay and batch size: only the idle-slot trigger can flush.
	b := New(echoCall(&batches, &mu), Options{MaxBatchSize: 64, MaxQueueDelay: time.Hour})
	defer b.Close()
	start := time.Now()
	out, info, err := b.DoDetailed(context.Background(), row(7))
	if err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("lone request with an idle executor took %v; should flush immediately", e)
	}
	if out[0].F[0] != 7 {
		t.Fatalf("wrong result %v", out[0])
	}
	if info.BatchRequests != 1 || info.BatchRows != 1 {
		t.Fatalf("occupancy: %+v", info)
	}
}

func TestFullBatchFlushUnderSaturation(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	gate := make(chan struct{}, 8)
	// One slot, hour-long delay: after saturation, only the size trigger
	// can cut the queued batch.
	b := New(gatedEcho(gate, &batches, &mu), Options{MaxBatchSize: 4, MaxQueueDelay: time.Hour, MaxInFlight: 1})
	sac := saturate(t, b, 3)

	var wg sync.WaitGroup
	outs := make([]*tensor.Tensor, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Do(context.Background(), row(float64(i)))
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			outs[i] = res[0]
		}(i)
	}
	waitFormed(t, b, 2) // sacrificial batch + the size-triggered batch of 4
	gate <- struct{}{}
	gate <- struct{}{}
	wg.Wait()
	sac.Wait()
	b.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 || batches[1][0] != 4 || batches[1][1] != 2 {
		t.Fatalf("want the 4 queued requests in one size-triggered batch, got %v", batches)
	}
	for i, o := range outs {
		if o == nil || o.Dim(0) != 1 || o.F[0] != float64(i) {
			t.Fatalf("req %d got wrong slice back: %v", i, o)
		}
	}
}

func TestTimeoutFlushUnderSaturation(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	gate := make(chan struct{}, 8)
	b := New(gatedEcho(gate, &batches, &mu), Options{MaxBatchSize: 64, MaxQueueDelay: 5 * time.Millisecond, MaxInFlight: 1})
	sac := saturate(t, b, 3)

	var wg sync.WaitGroup
	do := func() {
		defer wg.Done()
		if _, err := b.Do(context.Background(), row(1)); err != nil {
			t.Errorf("request: %v", err)
		}
	}
	// r1 queues (slot busy) and must be CUT by the MaxQueueDelay timer;
	// r2 arrives after that cut, so the two land in separate batches even
	// though both waited for the same gate.
	wg.Add(1)
	go do()
	waitFormed(t, b, 2) // timer fired: {r1} formed behind the sacrificial batch
	wg.Add(1)
	go do()
	waitFormed(t, b, 3)
	for i := 0; i < 3; i++ {
		gate <- struct{}{}
	}
	wg.Wait()
	sac.Wait()
	b.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 3 || batches[1][0] != 1 || batches[2][0] != 1 {
		t.Fatalf("want timer-cut singleton batches while saturated, got %v", batches)
	}
}

func TestCancellationMidQueueDoesNotPoisonBatch(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	gate := make(chan struct{}, 4)
	b := New(gatedEcho(gate, &batches, &mu), Options{MaxBatchSize: 8, MaxQueueDelay: 10 * time.Second, MaxInFlight: 1})
	sac := saturate(t, b, 3)

	cctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	var canceledErr, liveErr error
	var liveOut *tensor.Tensor
	go func() {
		defer wg.Done()
		_, canceledErr = b.Do(cctx, row(1))
	}()
	go func() {
		defer wg.Done()
		res, err := b.Do(context.Background(), row(2))
		liveErr = err
		if err == nil {
			liveOut = res[0]
		}
	}()
	waitQueued(t, b, 2) // both parked behind the busy slot, same bucket
	cancel()
	gate <- struct{}{} // sacrificial batch completes; batchDone cuts {canceled, live}
	gate <- struct{}{}
	wg.Wait()
	sac.Wait()
	b.Close()

	if !errors.Is(canceledErr, context.Canceled) {
		t.Fatalf("canceled request: want context.Canceled, got %v", canceledErr)
	}
	if liveErr != nil {
		t.Fatalf("neighbor poisoned by cancellation: %v", liveErr)
	}
	if liveOut.F[0] != 2 {
		t.Fatalf("neighbor got wrong rows back: %v", liveOut)
	}
	mu.Lock()
	defer mu.Unlock()
	// The canceled request must have been dropped at assembly: the second
	// batch carries only the survivor's row.
	if len(batches) != 2 || batches[1][0] != 1 || batches[1][1] != 2 {
		t.Fatalf("want the canceled request dropped from its batch, got %v", batches)
	}
	if s := b.Snapshot(); s.DroppedCanceled != 1 {
		t.Fatalf("DroppedCanceled = %d, want 1 (stats %+v)", s.DroppedCanceled, s)
	}
}

func TestMixedShapeBucketing(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	gate := make(chan struct{}, 4)
	b := New(gatedEcho(gate, &batches, &mu), Options{MaxBatchSize: 2, MaxQueueDelay: 10 * time.Second, MaxInFlight: 1})
	sac := saturate(t, b, 7)

	// Two sequence lengths, two requests each, all queued behind the busy
	// slot. Each pair must batch with its own kind — never across lengths
	// (no padding, no shape error).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 3
			if i%2 == 1 {
				n = 5
			}
			res, err := b.Do(context.Background(), rowN(n, float64(i)))
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			if res[0].Dim(1) != n || res[0].F[0] != float64(i) {
				t.Errorf("req %d: wrong slice %v", i, res[0])
			}
		}(i)
	}
	waitFormed(t, b, 3) // sacrificial + one size-cut batch per length bucket
	for i := 0; i < 3; i++ {
		gate <- struct{}{}
	}
	wg.Wait()
	sac.Wait()
	b.Close()

	mu.Lock()
	defer mu.Unlock()
	widths := map[int]int{}
	for _, sh := range batches[1:] {
		if sh[0] != 2 {
			t.Fatalf("want full 2-row batches per bucket, got %v", batches)
		}
		widths[sh[1]]++
	}
	if len(batches) != 3 || widths[3] != 1 || widths[5] != 1 {
		t.Fatalf("bucketing mixed lengths: %v", batches)
	}
}

func TestEnqueueValidationRejectsBeforeBatching(t *testing.T) {
	calls := int32(0)
	b := New(func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		atomic.AddInt32(&calls, 1)
		return args, nil
	}, Options{MaxQueueDelay: time.Millisecond, Validate: func(args []*tensor.Tensor) error {
		if args[0].DType() != tensor.Float {
			return fmt.Errorf("placeholder \"x\" wants float, got %v", args[0].DType())
		}
		return nil
	}})
	defer b.Close()

	cases := []struct {
		args []*tensor.Tensor
		want string
	}{
		{nil, "no feed tensors"},
		{[]*tensor.Tensor{tensor.Scalar(1)}, "batch dimension"},
		{[]*tensor.Tensor{tensor.FromInts([]int64{1}, 1, 1)}, "wants float"},
		{[]*tensor.Tensor{nil}, "is nil"},
	}
	for _, c := range cases {
		_, err := b.Do(context.Background(), c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("args %v: want error containing %q, got %v", c.args, c.want, err)
		}
		if !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("args %v: validation failure should wrap ErrInvalidRequest, got %v", c.args, err)
		}
	}
	if n := atomic.LoadInt32(&calls); n != 0 {
		t.Fatalf("invalid requests reached the call function %d times", n)
	}
	if s := b.Snapshot(); s.Rejected != int64(len(cases)) {
		t.Fatalf("Rejected = %d, want %d", s.Rejected, len(cases))
	}
}

func TestFetchMustCarryBatchAxisEvenSolo(t *testing.T) {
	// A call whose fetch reduces over axis 0 is a server misconfiguration;
	// it must fail deterministically on the very first (solo) request, not
	// only when requests happen to coalesce.
	reduce := func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		return []*tensor.Tensor{tensor.Scalar(1)}, nil
	}
	b := New(reduce, Options{MaxQueueDelay: time.Millisecond})
	defer b.Close()
	_, err := b.Do(context.Background(), row(1))
	if err == nil || !strings.Contains(err.Error(), "batch dimension") {
		t.Fatalf("want fetch-shape error on a solo request, got %v", err)
	}
}

func TestFailureIsolationAcrossBatches(t *testing.T) {
	// The call fails whenever a poison value rides in the batch; healthy
	// batches still succeed afterward.
	poison := func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		for i := 0; i < args[0].Dim(0); i++ {
			if args[0].F[i*args[0].Dim(1)] < 0 {
				return nil, fmt.Errorf("poison row")
			}
		}
		return []*tensor.Tensor{args[0]}, nil
	}
	b := New(poison, Options{MaxBatchSize: 1, MaxQueueDelay: time.Millisecond})
	defer b.Close()

	if _, err := b.Do(context.Background(), row(-1)); err == nil || !strings.Contains(err.Error(), "batched step failed") {
		t.Fatalf("want batch failure, got %v", err)
	}
	out, err := b.Do(context.Background(), row(3))
	if err != nil {
		t.Fatalf("healthy batch after a failed one: %v", err)
	}
	if out[0].F[0] != 3 {
		t.Fatalf("wrong result %v", out[0])
	}
	if s := b.Snapshot(); s.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", s.Errors)
	}
}

func TestMultiRowRequestsAndSplit(t *testing.T) {
	gate := make(chan struct{}, 4)
	var batches [][]int
	var mu sync.Mutex
	b := New(gatedEcho(gate, &batches, &mu), Options{MaxBatchSize: 8, MaxQueueDelay: 10 * time.Second, MaxInFlight: 1})
	sac := saturate(t, b, 7)

	mk := func(rows int, base float64) *tensor.Tensor {
		data := make([]float64, rows*2)
		for r := 0; r < rows; r++ {
			data[2*r], data[2*r+1] = base+float64(r), base+float64(r)
		}
		return tensor.FromFloats(data, rows, 2)
	}
	var wg sync.WaitGroup
	check := func(rows int, base float64) {
		defer wg.Done()
		out, err := b.Do(context.Background(), mk(rows, base))
		if err != nil {
			t.Errorf("rows=%d: %v", rows, err)
			return
		}
		if out[0].Dim(0) != rows {
			t.Errorf("rows=%d: got %v back", rows, out[0].Shape())
			return
		}
		for r := 0; r < rows; r++ {
			if out[0].F[r*out[0].Dim(1)] != base+float64(r) {
				t.Errorf("rows=%d: row %d corrupted: %v", rows, r, out[0])
				return
			}
		}
	}
	// A 3-row and a 2-row client mini-batch, stacked into one 5-row step
	// behind the busy slot, each split back to its own rows.
	wg.Add(2)
	go check(3, 10)
	go check(2, 100)
	waitQueued(t, b, 2)
	gate <- struct{}{}
	gate <- struct{}{}
	wg.Wait()
	sac.Wait()
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 || batches[1][0] != 5 {
		t.Fatalf("want one stacked 5-row batch, got %v", batches)
	}
}

func TestMaxBatchSizeSplitsLongQueue(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	block := make(chan struct{})
	call := func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		<-block
		mu.Lock()
		batches = append(batches, args[0].Shape())
		mu.Unlock()
		return []*tensor.Tensor{args[0]}, nil
	}
	// One execution slot, held busy by a first request, so the five behind
	// it pile up and must come out in batches of at most 3 rows. No timer
	// cuts the pile early (the delay is an hour), so it settles exactly:
	// one full batch formed behind the busy one, and 2 requests queued.
	b := New(call, Options{MaxBatchSize: 3, MaxQueueDelay: time.Hour, MaxInFlight: 1})
	var wg sync.WaitGroup
	do := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Do(context.Background(), row(float64(i))); err != nil {
				t.Errorf("req %d: %v", i, err)
			}
		}()
	}
	do(0)
	waitFormed(t, b, 1)
	for i := 1; i < 6; i++ {
		do(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for q, f := b.Load(); q != 2 || f != 2; q, f = b.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("never 2 requests queued behind 2 formed batches (at %d queued, %d formed)", q, f)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(block)
	wg.Wait()
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	var rows []int
	for _, sh := range batches {
		rows = append(rows, sh[0])
	}
	if !slices.Equal(rows, []int{1, 3, 2}) {
		t.Fatalf("batch rows %v, want [1 3 2]: the busy one, one split at MaxBatchSize, the rest", rows)
	}
}

func TestCloseDrainsQueuedRequests(t *testing.T) {
	gate := make(chan struct{}, 4)
	b := New(gatedEcho(gate, nil, nil), Options{MaxBatchSize: 8, MaxQueueDelay: time.Hour, MaxInFlight: 1})
	sac := saturate(t, b, 3)

	var got atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Do(context.Background(), row(1)); err == nil {
				got.Add(1)
			}
		}()
	}
	waitQueued(t, b, 3) // parked: delay is 1h and the slot is busy
	done := make(chan struct{})
	go func() {
		b.Close() // must flush the under-full batch and drain it
		close(done)
	}()
	gate <- struct{}{}
	gate <- struct{}{}
	wg.Wait()
	sac.Wait()
	<-done
	if got.Load() != 3 {
		t.Fatalf("Close dropped queued requests: served %d of 3", got.Load())
	}
	if _, err := b.Do(context.Background(), row(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after Close: want ErrClosed, got %v", err)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	gate := make(chan struct{}, 4)
	b := New(gatedEcho(gate, nil, nil), Options{MaxBatchSize: 8, MaxQueueDelay: time.Hour, MaxInFlight: 1, MaxQueuedRequests: 2})
	sac := saturate(t, b, 3)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Do(context.Background(), row(1)); err != nil {
				t.Errorf("queued request: %v", err)
			}
		}()
	}
	waitQueued(t, b, 2)
	if _, err := b.Do(context.Background(), row(1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	wg.Wait()
	sac.Wait()
	b.Close()
}

func TestConcurrentHammer(t *testing.T) {
	// Race-detector workout: many goroutines, mixed shapes, cancels, and
	// snapshots, against a call with real latency.
	call := func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		time.Sleep(200 * time.Microsecond) // dcfvet:allow testsleep=simulated call latency
		return []*tensor.Tensor{args[0]}, nil
	}
	b := New(call, Options{MaxBatchSize: 8, MaxQueueDelay: time.Millisecond, MaxInFlight: 4})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%7 == 0 {
					ctx, cancel = context.WithTimeout(ctx, 100*time.Microsecond)
				}
				width := 2 + w%3
				out, err := b.Do(ctx, rowN(width, 1))
				if cancel != nil {
					cancel()
				}
				if err == nil && out[0].Dim(1) != width {
					t.Errorf("shape mixup: %v", out[0].Shape())
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				b.Snapshot()
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	b.Close()
	s := b.Snapshot()
	if s.Batches == 0 || s.Rows < s.Batches {
		t.Fatalf("implausible stats: %+v", s)
	}
}
