package stack

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// memStub implements ops.DeviceMem with immediate transfers.
type memStub struct {
	mu       sync.Mutex
	used     int64
	capacity int64
	swapOuts int
	swapIns  int
}

func (m *memStub) Allocate(b int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.capacity > 0 && m.used+b > m.capacity {
		return errors.New("stub: out of memory")
	}
	m.used += b
	return nil
}
func (m *memStub) Release(b int64) {
	m.mu.Lock()
	m.used -= b
	m.mu.Unlock()
}
func (m *memStub) SwapOut(b int64, done func()) {
	m.mu.Lock()
	m.swapOuts++
	m.mu.Unlock()
	done()
}
func (m *memStub) SwapIn(b int64, done func()) {
	m.mu.Lock()
	m.swapIns++
	m.mu.Unlock()
	done()
}
func (m *memStub) UsedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}
func (m *memStub) CapacityBytes() int64 { return m.capacity }

func val(v float64) ops.Value { return ops.TensorVal(tensor.Full(v, 1024)) } // 8KB, above MinSwapBytes

func TestPushPopLIFO(t *testing.T) {
	s := New("s", false)
	for i := 1; i <= 3; i++ {
		if err := s.Push(val(float64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.elems) != 3 {
		t.Fatalf("len %d", len(s.elems))
	}
	for i := 3; i >= 1; i-- {
		v, err := s.Pop(nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.T.F[0] != float64(i) {
			t.Fatalf("LIFO violated: got %v want %d", v.T.F[0], i)
		}
	}
	if _, err := s.Pop(nil); err == nil {
		t.Fatal("pop from empty must fail")
	}
}

func TestPushChargesDeviceMemory(t *testing.T) {
	m := &memStub{capacity: 20000}
	s := New("s", false)
	if err := s.Push(val(1), m); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 8192 {
		t.Fatalf("used %d", m.UsedBytes())
	}
	if err := s.Push(val(2), m); err != nil {
		t.Fatal(err)
	}
	// Third push exceeds 20000 bytes.
	if err := s.Push(val(3), m); err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("want OOM, got %v", err)
	}
	// Pops release.
	if _, err := s.Pop(m); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 8192 {
		t.Fatalf("after pop used %d", m.UsedBytes())
	}
}

func TestSwapMovesBytesOffDevice(t *testing.T) {
	m := &memStub{capacity: 10000}
	s := New("s", true) // swap enabled, threshold 0 => always swap
	// Push three large tensors: without swap the second would OOM; with
	// swap each transfer releases device bytes.
	for i := 0; i < 3; i++ {
		if err := s.Push(val(float64(i)), m); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if m.swapOuts != 3 {
		t.Fatalf("swapOuts %d", m.swapOuts)
	}
	if m.UsedBytes() != 0 {
		t.Fatalf("device bytes after swap %d", m.UsedBytes())
	}
	// Pops swap back in.
	for i := 2; i >= 0; i-- {
		v, err := s.Pop(m)
		if err != nil {
			t.Fatal(err)
		}
		if v.T.F[0] != float64(i) {
			t.Fatalf("value order: got %v", v.T.F[0])
		}
	}
	if m.swapIns != 3 {
		t.Fatalf("swapIns %d", m.swapIns)
	}
}

func TestSmallTensorsNeverSwap(t *testing.T) {
	m := &memStub{capacity: 1 << 20}
	s := New("s", true)
	small := ops.TensorVal(tensor.Scalar(1)) // 8 bytes < MinSwapBytes
	if err := s.Push(small, m); err != nil {
		t.Fatal(err)
	}
	if m.swapOuts != 0 {
		t.Fatal("small tensor was swapped")
	}
}

func TestSwapThresholdDefersSwapping(t *testing.T) {
	m := &memStub{capacity: 100000}
	s := New("s", true)
	s.swapThreshold = 0.5 // swap only above 50% pressure
	// First pushes stay resident (usage below half of 100000).
	for i := 0; i < 5; i++ { // 5 * 8192 = 40960 < 50000
		if err := s.Push(val(1), m); err != nil {
			t.Fatal(err)
		}
	}
	if m.swapOuts != 0 {
		t.Fatalf("swapped below threshold: %d", m.swapOuts)
	}
	// Further pushes cross the threshold and swap.
	for i := 0; i < 3; i++ {
		if err := s.Push(val(1), m); err != nil {
			t.Fatal(err)
		}
	}
	if m.swapOuts == 0 {
		t.Fatal("never swapped above threshold")
	}
}

func TestResourceName(t *testing.T) {
	if New("abc", false).ResourceName() != "stack/abc" {
		t.Fatal("ResourceName")
	}
}

// TestPushPopShareOneOrderToken: the ordering token of every StackPush and
// StackPop is the one process-wide scalar, still 0 after 1 000 of each — none
// allocates a token, and nothing writes the shared one.
func TestPushPopShareOneOrderToken(t *testing.T) {
	pushDef, err := ops.Get("StackPush")
	if err != nil {
		t.Fatal(err)
	}
	popDef, err := ops.Get("StackPop")
	if err != nil {
		t.Fatal(err)
	}
	push, pop := pushDef.Kernel, popDef.Kernel
	handle := ops.ResourceVal(New("s", false))
	token := ops.TensorVal(tensor.ScalarInt(0))
	for _, kernel := range []struct {
		run ops.Kernel
		in  []ops.Value
	}{{push, []ops.Value{handle, val(1), token}}, {pop, []ops.Value{handle, token}}} {
		for i := 0; i < 1000; i++ {
			out, err := kernel.run(&ops.KernelContext{NodeName: "n", In: kernel.in})
			if err != nil {
				t.Fatal(err)
			}
			if out[1].T != orderToken.T {
				t.Fatalf("execution %d returned a token of its own, %p, not the shared %p", i, out[1].T, orderToken.T)
			}
		}
	}
	if got := orderToken.T.ScalarIntValue(); got != 0 || orderToken.T.Rank() != 0 {
		t.Fatalf("the shared token reads %d (rank %d) after 2 000 executions, want scalar 0", got, orderToken.T.Rank())
	}
}
