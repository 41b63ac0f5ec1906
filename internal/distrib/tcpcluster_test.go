package distrib

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// startWorkers launches n in-process worker daemons (real TCP on loopback)
// named wA, wB, ... and returns them with their control addresses.
func startWorkers(t testing.TB, n int) ([]*cluster.Worker, []string) {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = workerName(i)
	}
	return startNamedWorkers(t, names...)
}

func workerName(i int) string { return "w" + string(rune('A'+i)) }

func startNamedWorkers(t testing.TB, names ...string) ([]*cluster.Worker, []string) {
	t.Helper()
	workers := make([]*cluster.Worker, len(names))
	addrs := make([]string, len(names))
	for i, name := range names {
		w, err := cluster.NewWorker(name, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		addrs[i] = w.Addr()
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
	})
	return workers, addrs
}

// newTestCluster builds a cluster over fresh loopback workers in one of the
// two layouts a multi-device graph can run in. perDevice starts one worker
// per device, named as DeviceWorker names it, so every cross-device edge is
// a TCP hop; otherwise a single worker hosts every device and the edges stay
// in its in-process rendezvous tables. An unplaced node must default to a
// device some other node names explicitly.
func newTestCluster(t testing.TB, perDevice bool, b *core.Builder, fetches []graph.Output, targets []*graph.Node, opts TCPOptions) (*TCPCluster, error) {
	t.Helper()
	tc, _, err := newTestClusterWorkers(t, perDevice, b, fetches, targets, opts)
	return tc, err
}

// newTestClusterWorkers is newTestCluster returning the workers it started.
func newTestClusterWorkers(t testing.TB, perDevice bool, b *core.Builder, fetches []graph.Output, targets []*graph.Node, opts TCPOptions) (*TCPCluster, []*cluster.Worker, error) {
	t.Helper()
	names := []string{"w"}
	if perDevice {
		names = nil
		seen := map[string]bool{"": true}
		for _, n := range b.G.Nodes() {
			if !seen[n.Device()] {
				seen[n.Device()] = true
				names = append(names, DeviceWorker(n.Device()))
			}
		}
	} else {
		opts.WorkerOf = func(string) string { return "w" }
	}
	workers, addrs := startNamedWorkers(t, names...)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	tc, err := fleet.NewCluster(b, fetches, targets, opts)
	if err == nil {
		t.Cleanup(tc.Close)
	}
	return tc, workers, err
}

// midStep starts run, which runs one step, on a goroutine of its own and
// returns once the step is under way: once a worker holds a rendezvous scope
// table again, which the step's first Send or Recv creates. A finished
// step's tables live on until the driver releases them with the next step,
// so they are dropped first.
func midStep(t *testing.T, workers []*cluster.Worker, run func()) {
	t.Helper()
	for _, w := range workers {
		w.Rendezvous().ReleaseScopesIf(func(string) bool { return true })
	}
	go run()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		for _, w := range workers {
			if w.Rendezvous().ScopeCount() > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the step never reached a Send or Recv")
		}
	}
}

// sameBits fails unless two fetches agree in dtype, shape and every bit.
func sameBits(t testing.TB, what string, got, want *tensor.Tensor) {
	t.Helper()
	if got.DType() != want.DType() || !tensor.SameShape(got, want) || (want.DType() != tensor.Float && !tensor.Equal(got, want)) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for i := range want.F {
		if math.Float64bits(got.F[i]) != math.Float64bits(want.F[i]) {
			t.Fatalf("%s element %d: got %v, want %v", what, i, got.F[i], want.F[i])
		}
	}
}

// scenario is one multi-device graph and the steps to run on it. build is
// called once per cluster because partitioning rewrites the builder's graph.
type scenario struct {
	build func() (*core.Builder, []graph.Output, []*graph.Node)
	state map[string]*tensor.Tensor   // session variables to seed, if any
	steps []map[string]*tensor.Tensor // feeds of each step
}

// runBothLayouts runs the scenario with every device on one worker and
// with one worker per device, requires the same bits from both — where the
// partitions meet is a deployment choice, not part of the function — and
// returns the fetches step by step.
func runBothLayouts(t *testing.T, sc scenario) [][]*tensor.Tensor {
	t.Helper()
	run := func(perDevice bool) [][]*tensor.Tensor {
		b, fetches, targets := sc.build()
		tc, err := newTestCluster(t, perDevice, b, fetches, targets, TCPOptions{})
		if err != nil {
			t.Fatalf("perDevice=%v: %v", perDevice, err)
		}
		if err := tc.RestoreState(sc.state); err != nil {
			t.Fatalf("perDevice=%v: %v", perDevice, err)
		}
		out := make([][]*tensor.Tensor, len(sc.steps))
		for i, feeds := range sc.steps {
			if out[i], err = tc.Run(feeds); err != nil {
				t.Fatalf("perDevice=%v step %d: %v", perDevice, i, err)
			}
		}
		return out
	}
	one, per := run(false), run(true)
	for i := range one {
		for j := range one[i] {
			sameBits(t, fmt.Sprintf("step %d fetch %d, worker per device vs one worker", i, j), per[i][j], one[i][j])
		}
	}
	return one
}

// TestTCPCluster100Steps is the core acceptance scenario: a driver plus two
// worker daemons run a partitioned while-loop for 100+ consecutive steps,
// each step in its own rendezvous scope, with no cross-step leakage (scope
// tables must not accumulate).
func TestTCPCluster100Steps(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	b, outs := cluster.BuildHopLoop([]string{"wA", "wB"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	const steps = 101
	for s := 0; s < steps; s++ {
		// Vary the trip count per step: a leaked token from step s would
		// surface as a wrong result in step s+1.
		limit := float64(3 + s%5)
		vals, err := tc.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(limit)})
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if got := vals[0].ScalarValue(); got != limit {
			t.Fatalf("step %d: result %v, want %v", s, got, limit)
		}
	}
	// Scopes of completed steps are released as the watermark advances
	// (lag <= the in-flight window, not O(steps)).
	for i, w := range workers {
		if c := w.Rendezvous().ScopeCount(); c > 4 {
			t.Fatalf("worker %d holds %d scope tables after %d steps (leak)", i, c, steps)
		}
	}
}

// TestTCPClusterSingleWorker: a one-daemon fleet still terminates (the hop
// loop degenerates to a local increment) — no remote hops, all rendezvous
// routing is worker-local.
func TestTCPClusterSingleWorker(t *testing.T) {
	_, addrs := startWorkers(t, 1)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	b, outs := cluster.BuildHopLoop([]string{"wA"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	vals, err := tc.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(9)})
	if err != nil {
		t.Fatal(err)
	}
	if got := vals[0].ScalarValue(); got != 9 {
		t.Fatalf("got %v, want 9", got)
	}
}

// TestTCPClusterFourWorkers runs the loop across four daemons (multi-hop
// body) to cover >2-worker routing and fetch reassembly.
func TestTCPClusterFourWorkers(t *testing.T) {
	_, addrs := startWorkers(t, 4)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	b, outs := cluster.BuildHopLoop([]string{"wA", "wB", "wC", "wD"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	for s := 0; s < 5; s++ {
		vals, err := tc.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(6)})
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if got := vals[0].ScalarValue(); got != 6 {
			t.Fatalf("step %d: result %v, want 6", s, got)
		}
	}
}

// TestTCPClusterCancellation: driver-side context cancellation propagates
// to remote partitions as an abort control message — the step fails with
// the cancellation cause, blocked Recvs drain (the step actually returns),
// and the next step runs clean.
func TestTCPClusterCancellation(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	b, outs := cluster.BuildHopLoop([]string{"wA", "wB"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	midStep(t, workers, func() {
		// Effectively unbounded loop: only cancellation ends this step.
		_, err := tc.RunCtx(ctx, map[string]*tensor.Tensor{"limit": tensor.Scalar(1e12)})
		done <- err
	})
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled step succeeded")
		}
		if !strings.Contains(err.Error(), "cancel") {
			t.Fatalf("want cancellation error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled step never returned (blocked Recvs did not drain)")
	}
	// The cluster survives: the next step runs to completion.
	vals, err := tc.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(4)})
	if err != nil {
		t.Fatalf("step after cancellation: %v", err)
	}
	if got := vals[0].ScalarValue(); got != 4 {
		t.Fatalf("step after cancellation: %v, want 4", got)
	}
}

// TestTCPClusterWorkerKilledMidStep: killing one worker mid-step fails only
// that step (with an error naming the worker); after the daemon restarts at
// the same control address, the driver redials, re-registers, and the next
// step succeeds.
func TestTCPClusterWorkerKilledMidStep(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	b, outs := cluster.BuildHopLoop([]string{"wA", "wB"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// Warm step.
	if _, err := tc.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(3)}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	midStep(t, workers, func() {
		_, err := tc.RunCtx(context.Background(), map[string]*tensor.Tensor{"limit": tensor.Scalar(1e12)})
		done <- err
	})
	ctrlAddr := workers[1].Addr()
	workers[1].Close() // kill wB mid-step

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("step survived a worker death")
		}
		if !strings.Contains(err.Error(), "wB") && !strings.Contains(err.Error(), "wA") {
			t.Fatalf("error does not identify a worker: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("step never failed after worker death")
	}

	// Restart the daemon at the same control address (fresh data plane).
	w2, err := cluster.NewWorker("wB", ctrlAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart worker: %v", err)
	}
	workers[1] = w2
	t.Cleanup(w2.Close)

	vals, err := tc.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(5)})
	if err != nil {
		t.Fatalf("step after worker restart: %v", err)
	}
	if got := vals[0].ScalarValue(); got != 5 {
		t.Fatalf("step after restart: %v, want 5", got)
	}
}

// TestTCPClusterMultiDevicePerWorker: a worker may host several devices
// (each its own executor); fetches reassemble in caller order across
// devices and workers.
func TestTCPClusterMultiDevicePerWorker(t *testing.T) {
	_, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	b := core.NewBuilder()
	var a, c, d graph.Output
	b.WithDevice("wA/cpu:0", func() {
		a = b.Add(b.Scalar(1), b.Scalar(2))
	})
	b.WithDevice("wB/cpu:0", func() {
		c = b.Mul(a, b.Scalar(10))
	})
	b.WithDevice("wA/cpu:1", func() {
		d = b.Add(c, b.Scalar(0.5))
	})
	tc, err := fleet.NewCluster(b, []graph.Output{d, a, c}, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	vals, err := tc.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{30.5, 3, 30}
	for i, w := range want {
		if got := vals[i].ScalarValue(); got != w {
			t.Fatalf("fetch %d: got %v, want %v", i, got, w)
		}
	}
}

// TestTCPClusterInjectedLatency sanity-checks the fabric injection knob:
// with 2ms one-way latency every cross-worker hop pays it, so a 5-iteration
// two-hop loop takes at least ~10ms.
func TestTCPClusterInjectedLatency(t *testing.T) {
	ws, addrs := startWorkers(t, 2)
	for _, w := range ws {
		w.Rendezvous().SetFabric(2*time.Millisecond, 0)
	}
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	b, outs := cluster.BuildHopLoop([]string{"wA", "wB"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	start := time.Now()
	vals, err := tc.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got := vals[0].ScalarValue(); got != 5 {
		t.Fatalf("got %v, want 5", got)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("step took %v; injected latency not applied", d)
	}
}
