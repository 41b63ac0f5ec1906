package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// countedGate is gatedEcho that also counts the batches inside the call, so
// a test can tell "formed" from "executing".
func countedGate(gate chan struct{}, inside *atomic.Int32, batches *[][]int, mu *sync.Mutex) CallFunc {
	inner := gatedEcho(gate, batches, mu)
	return func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		inside.Add(1)
		defer inside.Add(-1)
		return inner(ctx, args)
	}
}

func waitInside(t *testing.T, inside *atomic.Int32, n int32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); inside.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("batches inside the call never reached %d (at %d)", n, inside.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSecondSlotFlushesWithoutWaiting: with one of two execution slots busy
// and an hour-long MaxQueueDelay, a second request still forms its batch
// and starts executing at once — a request waits only while every slot is
// busy. (Under the old "flush only when nothing is formed" rule it sat in
// the queue until the first batch completed.)
func TestSecondSlotFlushesWithoutWaiting(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	var inside atomic.Int32
	gate := make(chan struct{}, 2)
	b := New(countedGate(gate, &inside, &batches, &mu), Options{MaxBatchSize: 64, MaxQueueDelay: time.Hour, MaxInFlight: 2})
	var wg sync.WaitGroup
	do := func(v float64) {
		defer wg.Done()
		if _, info, err := b.DoDetailed(context.Background(), row(v)); err != nil || info.BatchRequests != 1 {
			t.Errorf("request %v: batch of %d, err %v; want to run alone", v, info.BatchRequests, err)
		}
	}
	wg.Add(1)
	go do(1)
	waitInside(t, &inside, 1)
	wg.Add(1)
	go do(2)
	waitInside(t, &inside, 2) // both executing, neither gate token spent
	gate <- struct{}{}
	gate <- struct{}{}
	wg.Wait()
	b.Close()
	if len(batches) != 2 {
		t.Fatalf("want two one-request batches, got %v", batches)
	}
}

// TestArrivalsAccumulateWhenAllSlotsBusy: with both slots busy, arrivals
// queue (no timer short of an hour) and the first completion cuts them as
// one shared batch.
func TestArrivalsAccumulateWhenAllSlotsBusy(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	var inside atomic.Int32
	gate := make(chan struct{}, 3)
	b := New(countedGate(gate, &inside, &batches, &mu), Options{MaxBatchSize: 64, MaxQueueDelay: time.Hour, MaxInFlight: 2})
	var wg sync.WaitGroup
	do := func(v float64, wantMates int) {
		defer wg.Done()
		if _, info, err := b.DoDetailed(context.Background(), row(v)); err != nil || info.BatchRequests != wantMates {
			t.Errorf("request %v rode a batch of %d (err %v), want %d", v, info.BatchRequests, err, wantMates)
		}
	}
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go do(float64(i), 1)
		waitInside(t, &inside, int32(i))
	}
	wg.Add(2)
	go do(3, 2)
	go do(4, 2)
	waitQueued(t, b, 2) // every slot busy: they wait, and together
	waitFormed(t, b, 2)
	gate <- struct{}{} // one batch completes; its slot goes to {3, 4}
	waitQueued(t, b, 0)
	gate <- struct{}{}
	gate <- struct{}{}
	wg.Wait()
	b.Close()
	if s := b.Snapshot(); s.Batches != 3 || s.Rows != 4 || s.MaxBatchRows != 2 {
		t.Fatalf("want batches {1}, {2}, {3,4}; got %v (%+v)", batches, s)
	}
}

// spinSink keeps spin's arithmetic from being optimised away.
var spinSink atomic.Uint64

// spin burns CPU in proportion to units, whoever else is running: the fake
// model's cost has to be work, not elapsed time, or two calls sharing one
// core would each look as fast as one.
func spin(units int) {
	x := uint64(units)
	for i := 0; i < units*1000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink.Add(x)
}

// BenchmarkBatcherClosedLoop is the batcher under closed-loop callers (each
// sends its next one-row request when the last is answered) over a
// CPU-bound fake model costing a fixed 200 units per call plus 25 per row —
// batching pays: a 16-row batch costs 600, sixteen lone calls 3600. It
// reports rows/s and mean batch occupancy. At callers ≤ MaxInFlight every
// caller gets its own slot (occupancy 1, no queueing); beyond, the slots
// stay busy and arrivals share batches.
func BenchmarkBatcherClosedLoop(b *testing.B) {
	for _, callers := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			bt := New(func(_ context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
				spin(200 + 25*args[0].Dim(0))
				return args, nil
			}, Options{})
			defer bt.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					feed := row(1)
					for next.Add(1) <= int64(b.N) {
						if _, err := bt.Do(context.Background(), feed); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(bt.Snapshot().AvgBatchRows(), "rows/batch")
		})
	}
}
