package dcf_test

// Optimizer correctness suite: for each pattern, the graph after Optimize
// must fetch bit-identical values to the graph as built (folding, CSE and
// transpose folding change where a value is computed, never its arithmetic),
// and must schedule no more node executions.

import (
	"context"
	"testing"

	"repro/dcf"
	"repro/internal/nn"
)

// runOptimizedVsRaw builds the same graph twice via build (which must be
// deterministic), runs one as constructed and one after Optimize, and
// requires bit-identical fetches and no more executed nodes.
func runOptimizedVsRaw(t *testing.T, name string, build func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op)) {
	t.Helper()
	runOne := func(optimize bool) ([]*dcf.Value, int) {
		g := dcf.NewGraph()
		fetches, feeds, targets := build(g)
		if err := g.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if optimize {
			if _, err := g.Optimize(); err != nil {
				t.Fatalf("%s: optimize: %v", name, err)
			}
		}
		sess := dcf.NewSession(g)
		if err := sess.InitVariables(); err != nil {
			t.Fatalf("%s: init: %v", name, err)
		}
		// One step runs fetches and targets together, so the execution
		// count covers the whole train-step schedule (forward, backward,
		// and update) and the fetched values are pre-update in both runs.
		vals, md, err := sess.RunCtx(context.Background(), dcf.RunOptions{Feeds: feeds, Fetches: fetches, Targets: targets})
		if err != nil {
			t.Fatalf("%s (optimize=%v): %v", name, optimize, err)
		}
		return vals, md.Stats.NodesExecuted
	}
	raw, rawExec := runOne(false)
	opt, optExec := runOne(true)
	if optExec > rawExec {
		t.Fatalf("%s: Optimize grew the schedule: %d -> %d executions", name, rawExec, optExec)
	}
	t.Logf("%s: %d -> %d executions", name, rawExec, optExec)
	if len(raw) != len(opt) {
		t.Fatalf("%s: fetch count mismatch", name)
	}
	for i := range raw {
		a, b := raw[i], opt[i]
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

func TestOptimizeMatchesRawDenseChain(t *testing.T) {
	runOptimizedVsRaw(t, "dense-chain", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
		x := g.Placeholder("x")
		w := g.Const(dcf.RandNormal(1, 0, 0.5, 8, 8))
		b := g.Const(dcf.RandNormal(2, 0, 0.1, 8))
		y := x.MatMul(w).Add(b).Tanh().Mul(g.Scalar(0.5)).Add(g.Scalar(1)).Sigmoid()
		return []dcf.Tensor{y.ReduceSum(), y.ReduceMean([]int{0}, false)},
			dcf.Feeds{"x": dcf.RandNormal(3, 0, 1, 4, 8)}, nil
	})
}

func TestOptimizeMatchesRawInGraphTrainingLoop(t *testing.T) {
	runOptimizedVsRaw(t, "train-loop", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
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

func TestOptimizeMatchesRawConditional(t *testing.T) {
	runOptimizedVsRaw(t, "cond", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
		x := g.Placeholder("x")
		p := x.ReduceSum().Greater(g.Scalar(0))
		outs := g.Cond(p,
			func() []dcf.Tensor { return []dcf.Tensor{x.Mul(g.Scalar(2)).Add(g.Scalar(1)).Relu()} },
			func() []dcf.Tensor { return []dcf.Tensor{x.Neg().Exp().Add(g.Scalar(3))} },
		)
		return []dcf.Tensor{outs[0]}, dcf.Feeds{"x": dcf.RandNormal(7, 0, 1, 6)}, nil
	})
}

// TestOptimizeMatchesRawRNNGraph covers the rnn example's training step:
// forward loop, gradient loop with its stacks, and the variable updates.
func TestOptimizeMatchesRawRNNGraph(t *testing.T) {
	runOptimizedVsRaw(t, "rnn", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
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

// TestOptimizeMatchesRawMoEGraph does the same for the moe example's
// conditional expert graph.
func TestOptimizeMatchesRawMoEGraph(t *testing.T) {
	runOptimizedVsRaw(t, "moe", func(g *dcf.Graph) ([]dcf.Tensor, dcf.Feeds, []dcf.Op) {
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
