package dcf_test

// Fusion correctness suite: for each pattern, the fused graph must produce
// bit-identical outputs to the unfused one (the fused kernel runs the same
// float operations in the same order, only in place), while scheduling
// strictly fewer node executions.

import (
	"context"
	"testing"

	"repro/dcf"
	"repro/internal/nn"
)

// runFusedVsUnfused builds the same graph twice via build (which must be
// deterministic), runs one as constructed and one after elementwise fusion,
// and requires bit-identical fetches plus a drop in executed nodes.
func runFusedVsUnfused(t *testing.T, name string, build func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op)) {
	t.Helper()
	type result struct {
		vals     []*dcf.Value
		executed int
		fused    int
	}
	runOne := func(fuse bool) result {
		g := dcf.NewGraph()
		fetches, feeds, targets := build(g)
		if err := g.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Both runs get folding and CSE so the measured execution drop is
		// attributable to fusion alone.
		st, err := g.OptimizeOpts(dcf.OptimizeOptions{Fuse: fuse})
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		fused := st.Fused
		sess := dcf.NewSession(g)
		if err := sess.InitVariables(); err != nil {
			t.Fatalf("%s: init: %v", name, err)
		}
		// One step runs fetches and targets together, so the execution
		// count covers the whole train-step schedule (forward, backward,
		// and update) and the fetched values are pre-update in both runs.
		vals, md, err := sess.RunCtx(context.Background(), dcf.RunOptions{Feeds: feeds, Fetches: fetches, Targets: targets})
		if err != nil {
			t.Fatalf("%s (fuse=%v): %v", name, fuse, err)
		}
		return result{vals: vals, executed: md.Stats.NodesExecuted, fused: fused}
	}
	plain := runOne(false)
	fused := runOne(true)
	if fused.fused < 2 {
		t.Fatalf("%s: expected a fusable chain, fused only %d nodes", name, fused.fused)
	}
	if fused.executed >= plain.executed {
		t.Fatalf("%s: fusion did not shrink the schedule: %d -> %d executions",
			name, plain.executed, fused.executed)
	}
	t.Logf("%s: %d -> %d executions (%d nodes fused)", name, plain.executed, fused.executed, fused.fused)
	if len(plain.vals) != len(fused.vals) {
		t.Fatalf("%s: fetch count mismatch", name)
	}
	for i := range plain.vals {
		a, b := plain.vals[i], fused.vals[i]
		if a.DType() != b.DType() || len(a.F) != len(b.F) || len(a.I) != len(b.I) {
			t.Fatalf("%s fetch %d: shape/dtype mismatch: %v vs %v", name, i, a, b)
		}
		for j := range a.F {
			if a.F[j] != b.F[j] {
				t.Fatalf("%s fetch %d elem %d: %v != %v (not bit-identical)", name, i, j, a.F[j], b.F[j])
			}
		}
		for j := range a.I {
			if a.I[j] != b.I[j] {
				t.Fatalf("%s fetch %d elem %d: %v != %v", name, i, j, a.I[j], b.I[j])
			}
		}
	}
}

func TestFusionDenseChain(t *testing.T) {
	runFusedVsUnfused(t, "dense-chain", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
		x := g.Placeholder("x")
		w := g.Const(dcf.RandNormal(1, 0, 0.5, 8, 8))
		b := g.Const(dcf.RandNormal(2, 0, 0.1, 8))
		y := x.MatMul(w).Add(b).Tanh().Mul(g.Scalar(0.5)).Add(g.Scalar(1)).Sigmoid()
		// Fetch through a non-fusable reduction: fetching the chain tail
		// itself would pin the original unfused nodes in the fused run.
		return []dcf.Tensor{y.ReduceSum(), y.ReduceMean([]int{0}, false)},
			dcf.Feeds{"x": dcf.RandNormal(3, 0, 1, 4, 8)}, nil
	})
}

func TestFusionInGraphTrainingLoop(t *testing.T) {
	runFusedVsUnfused(t, "train-loop", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
		target := g.Scalar(4)
		lr := g.Scalar(0.25)
		outs := g.While(
			[]dcf.Tensor{g.Scalar(0), g.Scalar(0)},
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(50)) },
			func(v []dcf.Tensor) []dcf.Tensor {
				w := v[1]
				grad := w.Sub(target).Mul(g.Scalar(2))
				return []dcf.Tensor{v[0].Add(g.Scalar(1)), w.Sub(grad.Mul(lr))}
			},
			dcf.WhileOpts{Name: "train"},
		)
		return []dcf.Tensor{outs[1]}, nil, nil
	})
}

func TestFusionConditional(t *testing.T) {
	runFusedVsUnfused(t, "cond", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
		x := g.Placeholder("x")
		p := x.ReduceSum().Greater(g.Scalar(0))
		outs := g.Cond(p,
			func() []dcf.Tensor { return []dcf.Tensor{x.Mul(g.Scalar(2)).Add(g.Scalar(1)).Relu()} },
			func() []dcf.Tensor { return []dcf.Tensor{x.Neg().Exp().Add(g.Scalar(3))} },
		)
		return []dcf.Tensor{outs[0]}, dcf.Feeds{"x": dcf.RandNormal(7, 0, 1, 6)}, nil
	})
}

// TestFusionRNNGraph asserts fusion shrinks the schedule of the rnn
// example's graph (LSTM gates are elementwise chains) with identical
// training behavior.
func TestFusionRNNGraph(t *testing.T) {
	runFusedVsUnfused(t, "rnn", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
		const batch, inDim, units = 2, 4, 8
		cell := nn.NewLSTMCell(g, "lstm", inDim, units, 7)
		x := g.Placeholder("x")
		y := g.Placeholder("y")
		h0 := g.Const(dcf.Zeros(batch, units))
		c0 := g.Const(dcf.Zeros(batch, units))
		r := nn.DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
		loss := nn.MSE(r.FinalH, y)
		step, err := nn.SGDStep(g, loss, &cell.Vars, 0.1, false)
		if err != nil {
			t.Fatal(err)
		}
		feeds := dcf.Feeds{
			"x": dcf.RandNormal(1, 0, 1, 5, batch, inDim),
			"y": dcf.RandNormal(2, 0, 0.3, batch, units),
		}
		return []dcf.Tensor{loss, r.FinalH}, feeds, []dcf.Op{step}
	})
}

// TestFusionMoEGraph asserts the same for the moe example's conditional
// expert graph.
func TestFusionMoEGraph(t *testing.T) {
	runFusedVsUnfused(t, "moe", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
		const in, out, experts, batch = 6, 3, 4, 8
		moe := nn.NewMoE(g, "moe", in, out, experts, 11)
		x := g.Placeholder("x")
		target := g.Placeholder("y")
		pred := moe.Apply(x)
		loss := nn.MSE(pred, target)
		step, err := nn.SGDStep(g, loss, &moe.Vars, 0.2, false)
		if err != nil {
			t.Fatal(err)
		}
		feeds := dcf.Feeds{
			"x": dcf.RandNormal(3, 0, 1, batch, in),
			"y": dcf.RandNormal(4, 0, 0.5, batch, out),
		}
		return []dcf.Tensor{loss, pred}, feeds, []dcf.Op{step}
	})
}
