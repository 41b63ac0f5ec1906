package device

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestAllocateReleaseAndOOM(t *testing.T) {
	d := New(Config{Name: "gpu:0", MemoryBytes: 100})
	defer d.Close()
	if err := d.Allocate(60); err != nil {
		t.Fatal(err)
	}
	if err := d.Allocate(50); err == nil {
		t.Fatal("expected OOM")
	} else {
		var oom *OOMError
		if !errors.As(err, &oom) {
			t.Fatalf("expected OOMError, got %T", err)
		}
		if oom.Used != 60 || oom.Requested != 50 || oom.Capacity != 100 {
			t.Fatalf("oom fields: %+v", oom)
		}
	}
	d.Release(60)
	if err := d.Allocate(100); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if d.UsedBytes() != 100 || d.CapacityBytes() != 100 {
		t.Fatalf("usage accounting: %d/%d", d.UsedBytes(), d.CapacityBytes())
	}
}

// TestAllocateWaitsForSwapOutInFlight is the allocator-retry rule, both
// outcomes: a request that does not fit waits for a swap-out in flight and
// takes the bytes it releases; with nothing in flight — or once what was in
// flight has landed without making room — it is an OOM. Neither outcome
// depends on how long the transfer takes.
func TestAllocateWaitsForSwapOutInFlight(t *testing.T) {
	d := New(Config{Name: "gpu:0", MemoryBytes: 100, CopyBandwidth: 2000}) // 40 bytes take 20 ms
	defer d.Close()
	if err := d.Allocate(60); err != nil {
		t.Fatal(err)
	}
	if err := d.Allocate(40); err != nil {
		t.Fatal(err)
	}
	landed := make(chan struct{})
	d.SwapOut(40, func() { close(landed); d.Release(40) })
	if err := d.Allocate(30); err != nil {
		t.Fatalf("a swap-out that frees enough was in flight, yet: %v", err)
	}
	select {
	case <-landed:
	default:
		t.Fatal("Allocate returned before the swap-out released its bytes")
	}
	if got := d.UsedBytes(); got != 90 {
		t.Fatalf("used %d bytes, want 90", got)
	}
	// In flight, but not enough: OOM once it has landed, not before.
	landed = make(chan struct{})
	d.SwapOut(20, func() { close(landed); d.Release(20) })
	var oom *OOMError
	if err := d.Allocate(50); !errors.As(err, &oom) || oom.Used != 70 {
		t.Fatalf("want an OOM with 70 bytes in use, got %v", err)
	}
	<-landed
	// Nothing in flight: OOM at once (Table 1's swap-disabled column).
	if err := d.Allocate(50); !errors.As(err, &oom) {
		t.Fatalf("want an OOM, got %v", err)
	}
	// Several waiters, several transfers: every request is served.
	var wg sync.WaitGroup
	for i := 0; i < 7; i++ {
		d.SwapOut(10, func() { d.Release(10) })
	}
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Allocate(10); err != nil {
				t.Errorf("waiter: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestUnlimitedDevice(t *testing.T) {
	d := New(Config{Name: "gpu:0"})
	defer d.Close()
	if err := d.Allocate(1 << 40); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseClampsAtZero(t *testing.T) {
	d := New(Config{Name: "gpu:0", MemoryBytes: 10})
	defer d.Close()
	d.Release(99)
	if d.UsedBytes() != 0 {
		t.Fatal("negative usage")
	}
}

func TestComputeStreamSerializes(t *testing.T) {
	d := New(Config{Name: "gpu:0"})
	defer d.Close()
	var mu sync.Mutex
	var order []int
	var inKernel bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.RunKernel("n", "op", func() {
				mu.Lock()
				if inKernel {
					t.Error("two kernels in the compute stream at once")
				}
				inKernel = true
				order = append(order, i)
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inKernel = false
				mu.Unlock()
			})
		}(i)
	}
	wg.Wait()
	if len(order) != 8 {
		t.Fatalf("ran %d kernels", len(order))
	}
}

func TestSwapTransfersRunOnCopyStreamsConcurrentlyWithCompute(t *testing.T) {
	tr := trace.New()
	d := New(Config{Name: "gpu:0", CopyBandwidth: 1e6, Tracer: tr}) // 1 MB/s
	defer d.Close()
	// Start a long swap-out (100ms of simulated transfer), then run
	// compute kernels; they must finish well before the transfer would
	// if the streams were shared.
	done := make(chan struct{})
	start := time.Now()
	d.SwapOut(100_000, func() { close(done) }) // 100 ms
	for i := 0; i < 5; i++ {
		d.RunKernel("n", "matmul", func() { time.Sleep(2 * time.Millisecond) })
	}
	computeElapsed := time.Since(start)
	if computeElapsed > 80*time.Millisecond {
		t.Fatalf("compute blocked behind the copy stream: %v", computeElapsed)
	}
	<-done
	if ov := tr.OverlapTime("gpu:0/compute", "gpu:0/memcpyDtoH"); ov == 0 {
		t.Fatal("expected compute/copy overlap in the trace")
	}
}

func TestSwapInOrdering(t *testing.T) {
	d := New(Config{Name: "gpu:0", CopyBandwidth: 1e9})
	defer d.Close()
	var mu sync.Mutex
	var seq []string
	var wg sync.WaitGroup
	wg.Add(2)
	d.SwapIn(1000, func() { mu.Lock(); seq = append(seq, "a"); mu.Unlock(); wg.Done() })
	d.SwapIn(1000, func() { mu.Lock(); seq = append(seq, "b"); mu.Unlock(); wg.Done() })
	wg.Wait()
	if seq[0] != "a" || seq[1] != "b" {
		t.Fatalf("H2D stream must preserve order: %v", seq)
	}
}

func TestClusterLookup(t *testing.T) {
	c := NewCluster(Config{Name: "gpu:0"}, Config{Name: "gpu:1"})
	defer c.Close()
	if c.Mem("gpu:0") == nil || c.Runner("gpu:1") == nil {
		t.Fatal("devices not found")
	}
	if c.Mem("cpu") != nil || c.Runner("") != nil {
		t.Fatal("unknown devices must map to nil (inline CPU)")
	}
}

func TestTracerASCIIAndChrome(t *testing.T) {
	tr := trace.New()
	now := time.Now()
	tr.Record("s1", "k1", now, now.Add(time.Millisecond))
	tr.Record("s2", "k2", now, now.Add(2*time.Millisecond))
	out := tr.ASCII(40)
	if len(out) == 0 {
		t.Fatal("empty ascii")
	}
	js, err := tr.ChromeTrace()
	if err != nil || len(js) == 0 {
		t.Fatalf("chrome trace: %v", err)
	}
	busy := tr.BusyTime()
	if busy["s1"] != time.Millisecond || busy["s2"] != 2*time.Millisecond {
		t.Fatalf("busy: %v", busy)
	}
}
