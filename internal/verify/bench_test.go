package verify_test

import (
	"testing"

	"repro/dcf"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/verify"
)

// rnnTrainNodes is the size of the repo benchmark's rnn_train training
// graph. A builder or autodiff change that moves it fails
// TestAcceptsRNNTrainGraph, and BenchmarkCheck keeps timing the same graph.
const rnnTrainNodes = 370

// rnnTrainGraph builds the repo benchmark's rnn_train training graph: an SGD
// step through a dynamic LSTM over untyped placeholders.
func rnnTrainGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	const batch, in, units = 16, 32, 64
	g := dcf.NewGraph()
	cell := nn.NewLSTMCell(g, "lstm", in, units, 7)
	r := nn.DynamicRNN(g, cell, g.Placeholder("x"), g.Const(dcf.Zeros(batch, units)), g.Const(dcf.Zeros(batch, units)), dcf.WhileOpts{})
	loss := nn.MSE(r.FinalH, g.Placeholder("y"))
	if _, err := nn.SGDStep(g, loss, &cell.Vars, 0.05, false); err != nil {
		tb.Fatal(err)
	}
	if err := g.Err(); err != nil {
		tb.Fatal(err)
	}
	gg := g.Builder().G
	if n := len(gg.Nodes()); n != rnnTrainNodes {
		tb.Fatalf("rnn_train graph has %d nodes, want %d", n, rnnTrainNodes)
	}
	return gg
}

// BenchmarkCheck verifies the rnn_train training graph as a session does
// once per graph version before it compiles a plan.
func BenchmarkCheck(b *testing.B) {
	gg := rnnTrainGraph(b)
	opts := verify.Options{Complete: true}
	if ds := verify.Check(gg, opts); len(ds) != 0 {
		b.Fatal(ds.Error())
	}
	b.ReportAllocs()
	for b.Loop() {
		verify.Check(gg, opts)
	}
}
