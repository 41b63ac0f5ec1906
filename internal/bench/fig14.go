package bench

import (
	"fmt"
	"io"

	"repro/dcf"
	"repro/internal/nn"
)

// Fig14Row is one point of Figure 14: total time of one training step with
// dynamic control flow (dynamic_rnn) versus static unrolling, by batch
// size. The paper reports a 3–8% slowdown for dynamic, shrinking as batch
// size grows.
type Fig14Row struct {
	Batch       int
	StaticSec   float64
	DynamicSec  float64
	SlowdownPct float64
}

// Fig14Config parameterizes the comparison (paper: single-layer LSTM,
// sequence length 200, one GPU).
type Fig14Config struct {
	Batches []int
	SeqLen  int
	Units   int
	In      int
	Repeats int
}

// DefaultFig14 mirrors the paper's sweep, scaled to pure-Go math.
func DefaultFig14(quick bool) Fig14Config {
	cfg := Fig14Config{
		Batches: []int{16, 32, 64, 128},
		SeqLen:  50,
		Units:   32,
		In:      16,
		Repeats: 3,
	}
	if quick {
		cfg.Batches = []int{8, 32}
		cfg.SeqLen = 20
		cfg.Repeats = 1
	}
	return cfg
}

// fig14Step builds one training step using either DynamicRNN or StaticRNN.
func fig14Step(cfg Fig14Config, batch int, dynamic bool) (*dcf.Graph, dcf.Op, error) {
	g := dcf.NewGraph()
	cell := nn.NewLSTMCell(g, "lstm", cfg.In, cfg.Units, 1)
	x := g.Placeholder("x")
	h0 := g.Const(dcf.Zeros(batch, cfg.Units))
	c0 := g.Const(dcf.Zeros(batch, cfg.Units))
	var r nn.RNNResult
	if dynamic {
		r = nn.DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
	} else {
		r = nn.StaticRNN(g, cell, x, cfg.SeqLen, h0, c0)
	}
	loss := r.Outputs.Square().ReduceMean(nil, false)
	step, err := nn.SGDStep(g, loss, &cell.Vars, 0.01, false)
	if err != nil {
		return nil, dcf.Op{}, err
	}
	return g, step, g.Err()
}

func fig14Measure(cfg Fig14Config, batch int, dynamic bool) (float64, error) {
	g, step, err := fig14Step(cfg, batch, dynamic)
	if err != nil {
		return 0, err
	}
	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		return 0, err
	}
	x := dcf.RandNormal(3, 0, 1, cfg.SeqLen, batch, cfg.In)
	feeds := dcf.Feeds{"x": x}
	if err := sess.RunTargets(feeds, step); err != nil { // warm-up
		return 0, err
	}
	best := 0.0
	for i := 0; i < cfg.Repeats; i++ {
		d, err := timeIt(func() error { return sess.RunTargets(feeds, step) })
		if err != nil {
			return 0, err
		}
		if best == 0 || d.Seconds() < best {
			best = d.Seconds()
		}
	}
	return best, nil
}

// Fig14 runs the dynamic-vs-static sweep.
func Fig14(cfg Fig14Config, w io.Writer) ([]Fig14Row, error) {
	fprintf(w, "Figure 14: dynamic control flow vs static unrolling (seq len %d, %d units)\n", cfg.SeqLen, cfg.Units)
	fprintf(w, "%8s %12s %12s %10s\n", "batch", "static s", "dynamic s", "slowdown")
	var rows []Fig14Row
	for _, b := range cfg.Batches {
		st, err := fig14Measure(cfg, b, false)
		if err != nil {
			return nil, fmt.Errorf("fig14 batch=%d static: %w", b, err)
		}
		dy, err := fig14Measure(cfg, b, true)
		if err != nil {
			return nil, fmt.Errorf("fig14 batch=%d dynamic: %w", b, err)
		}
		row := Fig14Row{
			Batch:       b,
			StaticSec:   st,
			DynamicSec:  dy,
			SlowdownPct: (dy/st - 1) * 100,
		}
		rows = append(rows, row)
		fprintf(w, "%8d %12.4f %12.4f %9.1f%%\n", b, st, dy, row.SlowdownPct)
	}
	return rows, nil
}
