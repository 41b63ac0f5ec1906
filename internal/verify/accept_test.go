package verify_test

import (
	"testing"

	"repro/dcf"
	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/verify"
)

// These tests pin the other half of the verifier's contract: every graph
// the builders actually produce — straight-line, while-loop, gradient,
// partitioned — must verify clean. A verifier that rejects
// valid programs is worse than none.

func mustClean(t *testing.T, g *graph.Graph, opts verify.Options) {
	t.Helper()
	if ds := verify.Check(g, opts); len(ds) != 0 {
		t.Fatalf("well-formed graph rejected:\n%v", ds.Error())
	}
}

func TestAcceptsStraightLineGraph(t *testing.T) {
	g := dcf.NewGraph()
	x := g.PlaceholderTyped("x", dcf.Float, 2, 3)
	w := g.Variable("w", dcf.Zeros(3, 4))
	b := g.Builder()
	y := b.Op("Relu", nil, x.MatMul(w).Output())
	loss := b.Op("Mean", map[string]any{"axes": []int(nil), "keep_dims": false}, b.Op("Square", nil, y))
	if _, err := autodiff.Gradients(b, loss, []graph.Output{w.Output()}, autodiff.Options{}); err != nil {
		t.Fatal(err)
	}
	mustClean(t, g.Builder().G, verify.Options{Complete: true})
}

func TestAcceptsWhileLoopWithGradients(t *testing.T) {
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	outs := g.While(
		[]dcf.Tensor{x, g.Scalar(0)},
		func(v []dcf.Tensor) dcf.Tensor { return v[1].Less(g.Scalar(5)) },
		func(v []dcf.Tensor) []dcf.Tensor {
			return []dcf.Tensor{v[0].Mul(g.Scalar(2)), v[1].Add(g.Scalar(1))}
		},
		dcf.WhileOpts{},
	)
	// Gradient of a while loop exercises Stack/StackPush/StackPop and a
	// second (backward) loop frame.
	g.MustGradients(outs[0], x)
	mustClean(t, g.Builder().G, verify.Options{Complete: true})
}

func TestAcceptsPartitionedWhileLoop(t *testing.T) {
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("cpu:0", func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
			func(v []graph.Output) []graph.Output {
				var r graph.Output
				b.WithDevice("cpu:1", func() { r = b.Add(v[0], b.Scalar(1)) })
				return []graph.Output{r}
			},
			core.WhileOpts{},
		)
	})
	_ = outs
	res, err := partition.Partition(b.G, b.G.Nodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The partitioned program as a whole — including the synthesized
	// control loop on cpu:1 — must verify clean: keys pair up, frames
	// nest, no rendezvous cycle.
	if ds := verify.CheckPartitions(b.G, res.Parts); len(ds) != 0 {
		t.Fatalf("partitioned graph rejected:\n%v", ds.Error())
	}
	// Each partition alone must also pass in partial mode.
	for dev, nodes := range res.Parts {
		if ds := verify.Check(b.G, verify.Options{Nodes: nodes}); len(ds) != 0 {
			t.Fatalf("partition %s rejected:\n%v", dev, ds.Error())
		}
	}
}

// The repo benchmark's rnn_train graph is the size BenchmarkCheck times and
// verifies clean.
func TestAcceptsRNNTrainGraph(t *testing.T) {
	mustClean(t, rnnTrainGraph(t), verify.Options{Complete: true})
}
