package main

import (
	"context"
	"fmt"
	"math"

	"repro/dcf"
	"repro/internal/nn"
)

// rnn_train sizes. T=12 keeps one SGD step near 18 ms on the 2-core
// pipeline host, so a segment holds ≥ 200 steps.
const (
	rnnBatch = 16
	rnnIn    = 32
	rnnUnits = 64
	rnnT     = 12
	rnnLR    = 0.05
	rnnSeed  = 7 // weight initialiser seed; the run's --seed makes only x and y
)

var rnnTrain = &workload{
	Name:       "rnn_train",
	Unit:       "sequence",
	UnitsPerOp: rnnBatch,
	Callers:    1,
	LimitMs:    45,
	Params: map[string]any{
		"cell": "LSTM", "batch": rnnBatch, "in": rnnIn, "units": rnnUnits, "T": rnnT,
		"loss": "MSE on final h", "optimizer": "SGD", "lr": rnnLR,
	},
	start: startRNN,
}

// rnnModel is the training graph both the workload and the set-up probes
// build.
type rnnModel struct {
	g    *dcf.Graph
	cell *nn.LSTMCell
	loss dcf.Tensor
	step dcf.Op
}

// buildRNNForward declares the cell and the dynamic loop up to the loss.
func buildRNNForward() *rnnModel {
	g := dcf.NewGraph()
	cell := nn.NewLSTMCell(g, "lstm", rnnIn, rnnUnits, rnnSeed)
	x := g.Placeholder("x") // [T, batch, in]
	y := g.Placeholder("y") // [batch, units]
	h0 := g.Const(dcf.Zeros(rnnBatch, rnnUnits))
	c0 := g.Const(dcf.Zeros(rnnBatch, rnnUnits))
	r := nn.DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
	return &rnnModel{g: g, cell: cell, loss: nn.MSE(r.FinalH, y)}
}

// addSGD builds the gradients through the loop and the update op.
func (m *rnnModel) addSGD() error {
	step, err := nn.SGDStep(m.g, m.loss, &m.cell.Vars, rnnLR, false)
	if err != nil {
		return fmt.Errorf("rnn_train: gradients: %w", err)
	}
	m.step = step
	return m.g.Err()
}

func (m *rnnModel) spec() dcf.CallableSpec {
	return dcf.CallableSpec{Feeds: []string{"x", "y"}, Fetches: []dcf.Tensor{m.loss}, Targets: []dcf.Op{m.step}}
}

func startRNN(seed uint64, _ string) (func() (*instance, error), error) {
	x := dcf.RandNormal(seed, 0, 1, rnnT, rnnBatch, rnnIn)
	y := dcf.RandNormal(seed+1, 0, 0.3, rnnBatch, rnnUnits)
	// The reference loss uses the same public initialisers NewLSTMCell
	// does (Glorot seeds s and s+1, forget-gate bias 1), in plain Go.
	bias := make([]float64, 4*rnnUnits)
	for i := rnnUnits; i < 2*rnnUnits; i++ {
		bias[i] = 1
	}
	wantFirst := lstmLossRef(x.F, y.F,
		dcf.GlorotUniform(rnnSeed, rnnIn, 4*rnnUnits).F, dcf.GlorotUniform(rnnSeed+1, rnnUnits, 4*rnnUnits).F,
		bias, rnnT, rnnBatch, rnnIn, rnnUnits)

	return func() (*instance, error) {
		m := buildRNNForward()
		if err := m.addSGD(); err != nil {
			return nil, err
		}
		sess := dcf.NewSession(m.g)
		if err := sess.InitVariables(); err != nil {
			return nil, err
		}
		call, err := sess.MakeCallable(m.spec())
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		out, err := call.Call(ctx, x, y)
		if err != nil {
			return nil, fmt.Errorf("rnn_train: first step: %w", err)
		}
		first := out[0].ScalarValue()
		if !closeTo(first, wantFirst, 1e-9) {
			return nil, fmt.Errorf("rnn_train: first-step loss %v, reference LSTM forward gives %v", first, wantFirst)
		}
		last := first
		return &instance{
			call: func(_, _ int) (any, error) {
				out, err := call.Call(ctx, x, y)
				if err != nil {
					return nil, err
				}
				return out[0].ScalarValue(), nil
			},
			callTraced: func(_, _ int) (any, []progSpan, error) {
				out, md, err := sess.RunCtx(ctx, dcf.RunOptions{
					Feeds:   dcf.Feeds{"x": x, "y": y},
					Fetches: []dcf.Tensor{m.loss}, Targets: []dcf.Op{m.step}, Trace: true,
				})
				if err != nil {
					return nil, nil, err
				}
				return out[0].ScalarValue(), tracerSpans(md.StepTrace), nil
			},
			// Per step the loss only has to be a number; the strict
			// descent check is the end-of-run oracle, since single steps
			// of SGD on a fixed batch need not be monotone.
			check: func(_ int, res any) error {
				last = res.(float64)
				if math.IsNaN(last) || math.IsInf(last, 0) {
					return fmt.Errorf("rnn_train: loss is %v", last)
				}
				return nil
			},
			finish: func() error {
				if !(last < first) {
					return fmt.Errorf("rnn_train: loss %v after the run is not below the first step's %v", last, first)
				}
				return nil
			},
			close: sess.Close,
		}, nil
	}, nil
}
