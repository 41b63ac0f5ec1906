package distrib

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestClusterLoopKeepsElementwiseKernels pins where the repo benchmark's
// cluster_loop step runs: a While on wA whose [64,256] tensor crosses to wB
// and back eight times a step through an elementwise affine op on each
// worker. Those kernels take a few microseconds, far below the hand-off cost,
// so in a warmed step every kernel of the loop body runs on its partition's
// dispatcher and only Send and Recv get goroutines of their own. Outside the
// loop two kernels run once a step while Recvs are pending: the ReduceSum of
// the fetched tensor, measured at 60 to 90 us, is handed off every step, and
// the Mul that makes the first tensor until its cold first sample (over
// 100 us) has been re-sampled down, a few hundred steps in.
func TestClusterLoopKeepsElementwiseKernels(t *testing.T) {
	const rows, cols, iters = 64, 256, 8
	b := core.NewBuilder()
	var fetches []graph.Output
	full := func(v float64) graph.Output { return b.Const(tensor.Full(v, rows, cols)) }
	b.WithDevice("wA/cpu", func() {
		limit := b.Placeholder("limit")
		t0 := b.Mul(b.Const(tensor.Full(1, rows, cols)), b.Placeholder("s"))
		outs := b.While(
			[]graph.Output{b.Scalar(0), t0},
			func(v []graph.Output) graph.Output { return b.Less(v[0], limit) },
			func(v []graph.Output) []graph.Output {
				x := v[1]
				b.WithDevice("wB/cpu", func() { x = b.Add(b.Mul(x, full(0.5)), full(0.25)) })
				x = b.Add(b.Mul(x, full(1.5)), full(-0.125))
				return []graph.Output{b.Add(v[0], b.Scalar(1)), x}
			},
			core.WhileOpts{Name: "hops"})
		fetches = []graph.Output{outs[0], b.ReduceSum(outs[1], nil, false)}
	})
	_, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	tc, err := fleet.NewCluster(b, fetches, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)

	feeds := map[string]*tensor.Tensor{"limit": tensor.Scalar(iters), "s": tensor.Scalar(1.25)}
	step := func() {
		out, err := tc.Run(feeds)
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].ScalarValue(); got != iters {
			t.Fatalf("loop counter %v, want %d", got, iters)
		}
	}
	// The first step times every kernel on the dispatcher; the next ones let
	// cold first samples settle.
	for i := 0; i < 40; i++ {
		step()
	}
	// Which kernels left: a traced step's spans on the streams of the
	// executions off the dispatcher.
	_, js, err := tc.RunTraced(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			TID  string `json:"tid"`
			Args struct {
				Op    string `json:"op"`
				Frame string `json:"frame"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	rendezvous, body := 0, 0
	for _, e := range doc.TraceEvents {
		spawned := strings.HasSuffix(e.TID, "/spawn")
		switch op := e.Args.Op; {
		case e.Ph != "X":
		case op == "Send" || op == "Recv":
			if spawned {
				rendezvous++
			}
		case strings.Contains(e.Args.Frame, "/hops/"):
			body++
			if spawned {
				t.Errorf("a %s kernel of the loop body on %s left the dispatcher", op, e.TID)
			}
		}
	}
	if rendezvous == 0 || body == 0 {
		t.Fatalf("%d Send/Recv spans on spawn streams, %d loop-body kernel spans: the trace does not say where executions ran", rendezvous, body)
	}
}
