package dcf_test

import (
	"errors"
	"strings"
	"testing"

	"repro/dcf"
	"repro/internal/device"
)

func TestQuickstartStyleUsage(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	outs := g.While(
		[]dcf.Tensor{g.Scalar(0), x},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(4)) },
		func(v []dcf.Tensor) []dcf.Tensor {
			return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].Mul(g.Scalar(2))}
		},
		dcf.WhileOpts{},
	)
	y := outs[1]
	sess := dcf.NewSession(g)
	got, err := sess.Run1(dcf.Feeds{"x": dcf.ScalarVal(3)}, y)
	if err != nil {
		t.Fatal(err)
	}
	if got.ScalarValue() != 48 { // 3 * 2^4
		t.Fatalf("got %v", got)
	}
}

func TestFluentOpsAndGradients(t *testing.T) {
	g := dcf.NewGraph()
	w := g.Variable("w", dcf.FromFloats([]float64{1, 2, 3}, 3))
	loss := w.Square().ReduceSum()
	grads := g.MustGradients(loss, w)
	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Run1(nil, grads[0])
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, dcf.FromFloats([]float64{2, 4, 6}, 3)) {
		t.Fatalf("got %v", got)
	}
}

func TestSGDTrainingStep(t *testing.T) {
	// Minimize (w-4)^2 with in-graph SGD updates across session runs.
	g := dcf.NewGraph()
	w := g.Variable("w", dcf.ScalarVal(0))
	loss := w.Sub(g.Scalar(4)).Square()
	grads := g.MustGradients(loss, w)
	step := g.ApplySGD("w", grads[0], g.Scalar(0.25))
	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := sess.RunTargets(nil, step); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Run1(nil, g.ReadVariable("w"))
	if err != nil {
		t.Fatal(err)
	}
	if d := got.ScalarValue() - 4; d > 1e-3 || d < -1e-3 {
		t.Fatalf("w = %v, want ~4", got)
	}
}

func TestCondAPI(t *testing.T) {
	g := dcf.NewGraph()
	p := g.Placeholder("p")
	x := g.Scalar(5)
	outs := g.Cond(p,
		func() []dcf.Tensor { return []dcf.Tensor{x.Square()} },
		func() []dcf.Tensor { return []dcf.Tensor{x.Neg()} },
	)
	sess := dcf.NewSession(g)
	got, err := sess.Run1(dcf.Feeds{"p": dcf.ScalarBool(true)}, outs[0])
	if err != nil || got.ScalarValue() != 25 {
		t.Fatalf("true branch: %v %v", got, err)
	}
	got, err = sess.Run1(dcf.Feeds{"p": dcf.ScalarBool(false)}, outs[0])
	if err != nil || got.ScalarValue() != -5 {
		t.Fatalf("false branch: %v %v", got, err)
	}
}

func TestTensorArrayAPI(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Const(dcf.FromFloats([]float64{1, 2, 3, 4}, 4, 1))
	ta := g.TensorArray(g.Int(0)).Unstack(x)
	doubled := g.MapFn(func(e dcf.Tensor) dcf.Tensor { return e.Mul(g.Scalar(2)) }, x, dcf.WhileOpts{})
	sess := dcf.NewSession(g)
	out, err := sess.Run(nil, []dcf.Tensor{ta.Size().Cast(dcf.Float), doubled})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarValue() != 4 {
		t.Fatalf("size %v", out[0])
	}
	if !equal(out[1], dcf.FromFloats([]float64{2, 4, 6, 8}, 4, 1)) {
		t.Fatalf("mapfn %v", out[1])
	}
}

func TestScanAPI(t *testing.T) {
	g := dcf.NewGraph()
	elems := g.Const(dcf.FromFloats([]float64{1, 2, 3, 4}, 4))
	out := g.Scan(func(acc, x dcf.Tensor) dcf.Tensor { return acc.Add(x) }, elems, g.Scalar(0), dcf.WhileOpts{})
	sess := dcf.NewSession(g)
	got, err := sess.Run1(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, dcf.FromFloats([]float64{1, 3, 6, 10}, 4)) {
		t.Fatalf("got %v", got)
	}
}

func TestDeviceOOMSurfacesAsError(t *testing.T) {
	// A loop saving big intermediates for backprop on a tiny device OOMs
	// without swapping (the Table 1 "Disabled" column behaviour).
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	var w dcf.Tensor
	g.WithDevice("gpu:0", func() {
		w = g.Variable("w", dcf.RandNormal(1, 0, 0.1, 64, 64))
	})
	var loss dcf.Tensor
	g.WithDevice("gpu:0", func() {
		outs := g.While(
			[]dcf.Tensor{g.Scalar(0), x},
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(50)) },
			func(v []dcf.Tensor) []dcf.Tensor {
				return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].MatMul(w).Tanh()}
			},
			dcf.WhileOpts{},
		)
		loss = outs[1].Square().ReduceSum()
	})
	grads := g.MustGradients(loss, w)
	sess := dcf.NewSessionOpts(g, dcf.SessionOptions{
		Devices: []dcf.DeviceConfig{{Name: "gpu:0", MemoryBytes: 400_000}},
	})
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	_, err := sess.Run1(dcf.Feeds{"x": dcf.RandNormal(2, 0, 1, 8, 64)}, grads[0])
	if err == nil {
		t.Fatal("expected OOM")
	}
	var oom *device.OOMError
	if !errors.As(err, &oom) && !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("expected an OOM error, got: %v", err)
	}
}

func TestSwappingAvoidsOOM(t *testing.T) {
	// Same workload with memory swapping enabled completes (the Table 1
	// "Enabled" column behaviour) and produces correct gradients.
	build := func(swap bool) (*dcf.Graph, dcf.Tensor, dcf.Tensor) {
		g := dcf.NewGraph()
		x := g.Placeholder("x")
		var w dcf.Tensor
		g.WithDevice("gpu:0", func() {
			w = g.Variable("w", dcf.RandNormal(1, 0, 0.1, 64, 64))
		})
		var loss dcf.Tensor
		g.WithDevice("gpu:0", func() {
			outs := g.While(
				[]dcf.Tensor{g.Scalar(0), x},
				func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(50)) },
				func(v []dcf.Tensor) []dcf.Tensor {
					return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].MatMul(w).Tanh()}
				},
				dcf.WhileOpts{},
			)
			loss = outs[1].Square().ReduceSum()
		})
		gr, err := g.Gradients(loss, []dcf.Tensor{w}, dcf.GradOptions{SwapMemory: swap})
		if err != nil {
			t.Fatal(err)
		}
		return g, x, gr[0]
	}

	gSwap, _, gradSwap := build(true)
	sess := dcf.NewSessionOpts(gSwap, dcf.SessionOptions{
		Devices: []dcf.DeviceConfig{{Name: "gpu:0", MemoryBytes: 400_000, CopyBandwidth: 10e9}},
	})
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	withSwap, err := sess.Run1(dcf.Feeds{"x": dcf.RandNormal(2, 0, 1, 8, 64)}, gradSwap)
	if err != nil {
		t.Fatalf("swap-enabled run failed: %v", err)
	}

	// Reference: same graph with no device constraint.
	gRef, _, gradRef := build(false)
	ref := dcf.NewSession(gRef)
	if err := ref.InitVariables(); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run1(dcf.Feeds{"x": dcf.RandNormal(2, 0, 1, 8, 64)}, gradRef)
	if err != nil {
		t.Fatal(err)
	}
	if !allClose(withSwap, want, 1e-9) {
		t.Fatal("swapping changed the numeric result")
	}
}

func TestTraceRecordsComputeAndCopyOverlap(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	var w, loss dcf.Tensor
	g.WithDevice("gpu:0", func() {
		w = g.Variable("w", dcf.RandNormal(1, 0, 0.1, 64, 64))
		outs := g.While(
			[]dcf.Tensor{g.Scalar(0), x},
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(30)) },
			func(v []dcf.Tensor) []dcf.Tensor {
				return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].MatMul(w).Tanh()}
			},
			dcf.WhileOpts{},
		)
		loss = outs[1].Square().ReduceSum()
	})
	grads, err := g.Gradients(loss, []dcf.Tensor{w}, dcf.GradOptions{SwapMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	sess := dcf.NewSessionOpts(g, dcf.SessionOptions{
		Devices: []dcf.DeviceConfig{{Name: "gpu:0", CopyBandwidth: 1e9}},
		Trace:   true,
	})
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run1(dcf.Feeds{"x": dcf.RandNormal(2, 0, 1, 8, 64)}, grads[0]); err != nil {
		t.Fatal(err)
	}
	tr := sess.Tracer()
	busy := tr.BusyTime()
	if busy["gpu:0/compute"] == 0 {
		t.Fatal("no compute activity traced")
	}
	if busy["gpu:0/memcpyDtoH"] == 0 {
		t.Fatal("no swap-out activity traced")
	}
}

func TestStickyErrorSurfacedAtRun(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	bad := g.While(nil, nil, nil, dcf.WhileOpts{}) // invalid: no loop vars
	_ = bad
	_ = x
	if g.Err() == nil {
		t.Fatal("expected builder error")
	}
	sess := dcf.NewSession(g)
	if _, err := sess.Run1(nil, x); err == nil {
		t.Fatal("run must surface construction error")
	}
}

func TestParallelIterationsOption(t *testing.T) {
	for _, p := range []int{1, 4, 32} {
		g := dcf.NewGraph()
		outs := g.While(
			[]dcf.Tensor{g.Scalar(0)},
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(100)) },
			func(v []dcf.Tensor) []dcf.Tensor { return []dcf.Tensor{v[0].Add(g.Scalar(1))} },
			dcf.WhileOpts{ParallelIterations: p},
		)
		got, err := dcf.NewSession(g).Run1(nil, outs[0])
		if err != nil || got.ScalarValue() != 100 {
			t.Fatalf("p=%d: %v %v", p, got, err)
		}
	}
}
