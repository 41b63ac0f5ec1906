package main

import (
	"context"
	"fmt"

	"repro/dcf"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// cluster_loop sizes: each iteration carries a [64,256] float64 tensor
// (131 072 B) w0 → w1 → w0 through an elementwise affine op on each
// worker, so a step is 16 large hops plus the loop-control messages and
// the wire does most of the work.
const (
	hopRows, hopCols = 64, 256
	hopIters         = 8
	hopInputs        = 64 // distinct fed scales, cycled
	hopA1, hopB1     = 0.5, 0.25
	hopA0, hopB0     = 1.5, -0.125
)

var clusterLoop = &workload{
	Name:       "cluster_loop",
	Unit:       "iteration",
	UnitsPerOp: hopIters,
	Callers:    1,
	LimitMs:    30,
	Params: map[string]any{
		"workers": 2, "transport": "loopback TCP, in-process daemons", "tensor": []int{hopRows, hopCols},
		"bytes_per_hop": hopRows * hopCols * 8, "iterations_per_step": hopIters, "body": "t*a+b on each worker",
		"inputs_cycled": hopInputs,
	},
	start: startCluster,
}

// buildHopGraph is the partitioned loop: driven on workers[0], with the
// tensor loop variable crossing to workers[1] and back each iteration.
// The step fetches the counter and the sum of the final tensor, so only
// scalars travel on the control plane.
//
// The affine constants are full [64,256] tensors, not scalars: same-shape
// operands take the kernels' straight loop, where a broadcast scalar goes
// through the per-element indexer and made the two tiny kernels 45 % of the
// step — this workload is here for the wire.
func buildHopGraph(workers []string, x *tensor.Tensor) (*core.Builder, []graph.Output) {
	b := core.NewBuilder()
	var fetches []graph.Output
	full := func(v float64) graph.Output { return b.Const(tensor.Full(v, hopRows, hopCols)) }
	b.WithDevice(workers[0]+"/cpu", func() {
		limit := b.Placeholder("limit")
		t0 := b.Mul(b.Const(x), b.Placeholder("s"))
		outs := b.While(
			[]graph.Output{b.Scalar(0), t0},
			func(v []graph.Output) graph.Output { return b.Less(v[0], limit) },
			func(v []graph.Output) []graph.Output {
				t := v[1]
				b.WithDevice(workers[1]+"/cpu", func() {
					t = b.Add(b.Mul(t, full(hopA1)), full(hopB1))
				})
				t = b.Add(b.Mul(t, full(hopA0)), full(hopB0))
				return []graph.Output{b.Add(v[0], b.Scalar(1)), t}
			},
			core.WhileOpts{Name: "hops"})
		fetches = []graph.Output{outs[0], b.ReduceSum(outs[1], nil, false)}
	})
	return b, fetches
}

// hopCluster is two in-process worker daemons on loopback TCP with the hop
// graph registered.
type hopCluster struct {
	daemons []*cluster.Worker
	fleet   *distrib.Fleet
	tc      *distrib.TCPCluster
}

// newHopFleet starts the daemons and dials them.
func newHopFleet() (*hopCluster, []string, error) {
	h := &hopCluster{}
	names := []string{"w0", "w1"}
	addrs := make([]string, len(names))
	for i, name := range names {
		d, err := cluster.NewWorker(name, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, nil, err
		}
		h.daemons = append(h.daemons, d)
		addrs[i] = d.Addr()
	}
	fleet, err := distrib.Dial(addrs...)
	if err != nil {
		h.close()
		return nil, nil, err
	}
	h.fleet = fleet
	return h, names, nil
}

// register partitions the graph over the fleet and registers it.
func (h *hopCluster) register(b *core.Builder, fetches []graph.Output) error {
	tc, err := h.fleet.NewCluster(b, fetches, nil, distrib.TCPOptions{})
	if err != nil {
		return err
	}
	h.tc = tc
	return nil
}

func (h *hopCluster) close() {
	if h.tc != nil {
		h.tc.Close()
	}
	if h.fleet != nil {
		h.fleet.Close()
	}
	for _, d := range h.daemons {
		d.Close()
	}
}

// hopResult is one step's two fetches.
type hopResult struct{ count, sum float64 }

func hopFeeds(limit int, s *tensor.Tensor) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"limit": tensor.Scalar(float64(limit)), "s": s}
}

func startCluster(seed uint64, _ string) (func() (*instance, error), error) {
	x := dcf.RandNormal(seed, 0, 1, hopRows, hopCols)
	scales := dcf.RandUniform(seed+1, 0.5, 1.5, hopInputs).F
	feeds := make([]map[string]*tensor.Tensor, hopInputs)
	want := make([]float64, hopInputs)
	for k, s := range scales {
		feeds[k] = hopFeeds(hopIters, tensor.Scalar(s))
		want[k] = hopSumRef(x.F, s, hopIters, hopA1, hopB1, hopA0, hopB0)
	}

	return func() (*instance, error) {
		h, names, err := newHopFleet()
		if err != nil {
			return nil, err
		}
		b, fetches := buildHopGraph(names, x)
		if err := h.register(b, fetches); err != nil {
			h.close()
			return nil, err
		}
		ctx := context.Background()
		inst := &instance{
			call: func(_, i int) (any, error) {
				out, err := h.tc.Run(feeds[i%hopInputs])
				if err != nil {
					return nil, err
				}
				return hopResult{out[0].ScalarValue(), out[1].ScalarValue()}, nil
			},
			callTraced: func(_, i int) (any, []progSpan, error) {
				out, js, err := h.tc.RunTraced(ctx, feeds[i%hopInputs])
				if err != nil {
					return nil, nil, err
				}
				spans, err := chromeSpans(js)
				if err != nil {
					return nil, nil, err
				}
				return hopResult{out[0].ScalarValue(), out[1].ScalarValue()}, spans, nil
			},
			check: func(i int, res any) error {
				r := res.(hopResult)
				if r.count != hopIters || !closeTo(r.sum, want[i%hopInputs], 1e-9) {
					return fmt.Errorf("cluster_loop: got (count %v, sum %v), want (%d, %v)", r.count, r.sum, hopIters, want[i%hopInputs])
				}
				return nil
			},
			close: h.close,
		}
		if err := inst.callChecked(0, 0); err != nil {
			h.close()
			return nil, fmt.Errorf("cluster_loop: first step: %w", err)
		}
		return inst, nil
	}, nil
}
