package distrib

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestClusterRunCtxCancel cancels a cross-device while loop far too long to
// finish: every partition must stop promptly (the loop driver via the
// dispatcher's cancel poll, the body partition via the rendezvous abort),
// the step must report the context's error, and no goroutine the step
// started — executors, handed-off kernels, the driver's response forwarders — may
// outlive it, whether the partitions share a worker or meet over TCP.
func TestClusterRunCtxCancel(t *testing.T) {
	t.Run("oneWorker", func(t *testing.T) { cancelMidStep(t, false) })
	t.Run("workerPerDevice", func(t *testing.T) { cancelMidStep(t, true) })
}

func cancelMidStep(t *testing.T, perDevice bool) {
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("dev:0", func() {
		limit := b.Placeholder("limit")
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], limit) },
			func(v []graph.Output) []graph.Output {
				var r graph.Output
				b.WithDevice("dev:1", func() {
					r = b.Add(v[0], b.Scalar(1))
				})
				return []graph.Output{r}
			},
			core.WhileOpts{},
		)
	})
	c, workers, err := newTestClusterWorkers(t, perDevice, b, outs[:1], nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A short step first: it dials the data plane, whose connections
	// and readers stay for the cluster's life and belong in the baseline.
	if _, err := c.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(3)}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	midStep(t, workers, func() {
		_, err := c.RunCtx(ctx, map[string]*tensor.Tensor{"limit": tensor.Scalar(1e12)})
		errc <- err
	})
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cluster step did not return after cancel")
	}
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count settles back to (near)
// the baseline, failing if canceled executors leaked workers.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancel: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
