// Package device simulates the accelerator devices of the paper's
// evaluation platform (K40/V100 GPUs): a capacity-limited memory system and
// a set of streams — compute, host-to-device copy, and device-to-host copy —
// each executing enqueued kernels sequentially, with kernels on different
// streams running in parallel (§5.3).
//
// Compute kernels execute real Go math, so compute cost is real wall time;
// copy "kernels" charge a simulated transfer time of bytes/bandwidth. This
// reproduces the behaviours the paper's claims rest on: bounded device
// memory, sequential execution within a stream, and compute/copy overlap
// across streams.
package device

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/ops"
	"repro/internal/trace"
)

// OOMError reports device memory exhaustion.
type OOMError struct {
	Device    string
	Requested int64
	Used      int64
	Capacity  int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("device %s: out of memory: requested %d bytes, used %d of %d",
		e.Device, e.Requested, e.Used, e.Capacity)
}

// Config describes one simulated device.
type Config struct {
	// Name is the device name nodes are placed on (e.g. "gpu:0").
	Name string
	// MemoryBytes caps device memory; 0 means unlimited.
	MemoryBytes int64
	// CopyBandwidth is the simulated PCIe bandwidth in bytes/second for
	// H2D/D2H transfers; 0 disables transfer-time simulation.
	CopyBandwidth float64
	// KernelCost, if set, returns a simulated execution time per op
	// type, charged on the compute stream in addition to the real
	// kernel. It models accelerator compute on hosts whose CPU cannot
	// exhibit the parallelism a multi-GPU machine would (kernels on
	// different devices then overlap in wall-clock time like real GPU
	// kernels do, independent of host core count).
	KernelCost func(op string) time.Duration
	// Tracer, if set, records per-stream kernel timelines (Figure 13).
	Tracer *trace.Tracer
}

// Device is one simulated accelerator.
type Device struct {
	cfg Config

	mu   sync.Mutex
	used int64
	peak int64
	// swapsOut counts device-to-host transfers in flight: memory that is
	// still reserved but about to be released. freed is signalled whenever
	// bytes are released or such a transfer lands.
	swapsOut int
	freed    *sync.Cond

	compute *stream
	h2d     *stream
	d2h     *stream
}

// New creates a device and starts its streams.
func New(cfg Config) *Device {
	d := &Device{cfg: cfg}
	d.freed = sync.NewCond(&d.mu)
	d.compute = newStream(cfg.Name+"/compute", cfg.Tracer)
	d.h2d = newStream(cfg.Name+"/memcpyHtoD", cfg.Tracer)
	d.d2h = newStream(cfg.Name+"/memcpyDtoH", cfg.Tracer)
	return d
}

// Close stops the device's streams.
func (d *Device) Close() {
	d.compute.close()
	d.h2d.close()
	d.d2h.close()
}

// --- ops.DeviceMem ---------------------------------------------------------

// Allocate reserves bytes. A request that does not fit waits while a
// swap-out is in flight — its bytes are on their way out — and retries as
// memory is released; it fails with OOM only when nothing is in flight that
// could make room (the allocator-retry rule). Whether a step runs out of
// memory therefore depends on what it holds, not on how fast its kernels
// push against the copy stream.
func (d *Device) Allocate(bytes int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.cfg.MemoryBytes > 0 && d.used+bytes > d.cfg.MemoryBytes {
		if d.swapsOut == 0 {
			return &OOMError{Device: d.cfg.Name, Requested: bytes, Used: d.used, Capacity: d.cfg.MemoryBytes}
		}
		d.freed.Wait()
	}
	d.used += bytes
	if d.used > d.peak {
		d.peak = d.used
	}
	return nil
}

// PeakBytes reports the high-water mark of device memory usage.
func (d *Device) PeakBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// Release returns bytes to the device.
func (d *Device) Release(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.used -= bytes
	if d.used < 0 {
		d.used = 0
	}
	d.freed.Broadcast()
}

// UsedBytes reports current usage.
func (d *Device) UsedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// CapacityBytes reports the configured capacity (0 = unlimited).
func (d *Device) CapacityBytes() int64 { return d.cfg.MemoryBytes }

// SwapOut schedules a device-to-host transfer on the D2H stream; done runs
// after the simulated transfer completes (and releases the bytes, which a
// waiting Allocate then takes).
func (d *Device) SwapOut(bytes int64, done func()) {
	d.mu.Lock()
	d.swapsOut++
	d.mu.Unlock()
	d.d2h.enqueue("swap_out", d.transferTime(bytes), func() {
		if done != nil {
			done()
		}
		d.mu.Lock()
		d.swapsOut--
		d.mu.Unlock()
		d.freed.Broadcast()
	})
}

// SwapIn schedules a host-to-device transfer on the H2D stream.
func (d *Device) SwapIn(bytes int64, done func()) {
	d.h2d.enqueue("swap_in", d.transferTime(bytes), done)
}

func (d *Device) transferTime(bytes int64) time.Duration {
	if d.cfg.CopyBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / d.cfg.CopyBandwidth * float64(time.Second))
}

// --- exec.Runner -----------------------------------------------------------

// RunKernel implements exec.Runner: the kernel joins the compute stream's
// queue (kernels within a stream run sequentially; the executor's calling
// goroutine blocks until this kernel retires, as its outputs feed
// propagation).
func (d *Device) RunKernel(node, op string, fn func()) {
	var delay time.Duration
	if d.cfg.KernelCost != nil {
		delay = d.cfg.KernelCost(op)
	}
	doneCh := make(chan struct{})
	d.compute.enqueueFn(op, delay, fn, func() { close(doneCh) })
	<-doneCh
}

// stream executes tasks sequentially on a dedicated goroutine, mirroring a
// CUDA stream.
type stream struct {
	name   string
	tracer *trace.Tracer
	tasks  chan streamTask
	wg     sync.WaitGroup
}

type streamTask struct {
	name  string
	delay time.Duration
	fn    func()
	done  func()
}

func newStream(name string, tracer *trace.Tracer) *stream {
	s := &stream{name: name, tracer: tracer, tasks: make(chan streamTask, 1024)}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *stream) loop() {
	defer s.wg.Done()
	for t := range s.tasks {
		start := time.Now()
		if t.delay > 0 {
			time.Sleep(t.delay)
		}
		if t.fn != nil {
			t.fn()
		}
		if s.tracer != nil {
			s.tracer.Record(s.name, t.name, start, time.Now())
		}
		if t.done != nil {
			t.done()
		}
	}
}

// enqueue schedules a delay-only task (transfers).
func (s *stream) enqueue(name string, delay time.Duration, done func()) {
	s.tasks <- streamTask{name: name, delay: delay, done: done} // dcfvet:allow unsafesend=single-owner lifecycle; close runs only from Device.Close at teardown, after the session stops enqueuing
}

// enqueueFn schedules a compute task.
func (s *stream) enqueueFn(name string, delay time.Duration, fn, done func()) {
	s.tasks <- streamTask{name: name, delay: delay, fn: fn, done: done} // dcfvet:allow unsafesend=single-owner lifecycle; close runs only from Device.Close at teardown, after the session stops enqueuing
}

func (s *stream) close() {
	close(s.tasks)
	s.wg.Wait()
}

// Cluster is a set of simulated devices plus the (unconstrained, inline)
// CPU, addressable by name — what a Session plugs into its Mem/Runner
// hooks.
type Cluster struct {
	devices map[string]*Device
}

// NewCluster builds devices from configs.
func NewCluster(cfgs ...Config) *Cluster {
	c := &Cluster{devices: map[string]*Device{}}
	for _, cfg := range cfgs {
		c.devices[cfg.Name] = New(cfg)
	}
	return c
}

// Close stops all devices.
func (c *Cluster) Close() {
	for _, d := range c.devices {
		d.Close()
	}
}

// Device returns a device by name (nil for unknown names, i.e. the CPU).
func (c *Cluster) Device(name string) *Device { return c.devices[name] }

// Mem is the Session hook returning a device's memory system.
func (c *Cluster) Mem(name string) ops.DeviceMem {
	if d, ok := c.devices[name]; ok {
		return d
	}
	return nil
}

// Runner is the Session hook returning a device's kernel runner.
func (c *Cluster) Runner(name string) exec.Runner {
	if d, ok := c.devices[name]; ok {
		return d
	}
	return nil
}
