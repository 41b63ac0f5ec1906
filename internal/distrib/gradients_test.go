package distrib

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestDistributedGradientLoop differentiates a while-loop whose body spans
// two devices and runs the result on a cluster: the forward loop, its
// state-saving stack pushes, and the gradient loop are all partitioned,
// with control-loop state machines driving each participant (§4.4 + §5.1
// combined — "these subgraphs can also be partitioned and executed on a
// set of heterogeneous devices").
//
// The stack that carries forward values to the gradient loop is a step
// resource, and its handle crosses from the device that creates it to the
// one that pushes. Devices on one worker share step resources, so there the
// gradient must match a single-session run. A handle cannot cross workers,
// so with a worker per device the step has a defined outcome: it fails at
// once with that reason, every time — the failed step leaves nothing behind
// that keeps the next one from running to the same answer.
func TestDistributedGradientLoop(t *testing.T) {
	build := func(devBody string) (*core.Builder, graph.Output) {
		b := core.NewBuilder()
		var x, y graph.Output
		b.WithDevice("dev:0", func() {
			x = b.Placeholder("x")
			w := b.Const(tensor.FromFloats([]float64{0.5, 0.1, -0.2, 0.8}, 2, 2))
			outs := b.While(
				[]graph.Output{b.Scalar(0), x},
				func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
				func(v []graph.Output) []graph.Output {
					var next graph.Output
					b.WithDevice(devBody, func() {
						next = b.Tanh(b.MatMul(v[1], w))
					})
					return []graph.Output{b.Add(v[0], b.Scalar(1)), next}
				},
				core.WhileOpts{},
			)
			y = b.ReduceSum(outs[1], nil, false)
		})
		grads, err := autodiff.Gradients(b, y, []graph.Output{x}, autodiff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return b, grads[0]
	}
	feed := map[string]*tensor.Tensor{"x": tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2)}

	// Reference: everything on one device, in one session.
	bRef, gRef := build("dev:0")
	ref, err := run1(core.NewSession(bRef), feed, gRef)
	if err != nil {
		t.Fatal(err)
	}

	// Body (and its gradient ops, colocated) on dev:1, both devices on one
	// worker.
	b, g := build("dev:1")
	c, err := newTestCluster(t, false, b, []graph.Output{g}, nil, TCPOptions{DefaultDevice: "dev:0"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if !allClose(got[0], ref, 1e-9) {
		t.Fatalf("distributed gradient differs:\n got %v\nwant %v", got[0], ref)
	}

	// The same graph with a worker per device.
	b, g = build("dev:1")
	c, err = newTestCluster(t, true, b, []graph.Output{g}, nil, TCPOptions{DefaultDevice: "dev:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for step := 1; step <= 2; step++ {
		_, err = c.RunCtx(ctx, feed)
		if err == nil || !strings.Contains(err.Error(), "resource handles cannot cross workers") {
			t.Fatalf("step %d, a stack handle crossing workers: want the step to fail saying so, got %v", step, err)
		}
	}
}

// run1 runs the step that fetches one output.
func run1(s *core.Session, feeds map[string]*tensor.Tensor, fetch graph.Output) (*tensor.Tensor, error) {
	out, err := s.Run(feeds, []graph.Output{fetch}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
