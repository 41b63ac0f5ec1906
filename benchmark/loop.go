package main

import (
	"context"
	"fmt"

	"repro/dcf"
)

// loop_dispatch sizes: the body is three scalar kernels, so nearly all of
// a call is the executor moving tokens through Merge/Switch/NextIteration.
const (
	loopIters  = 5000
	loopA      = 0.9997
	loopInputs = 64 // distinct fed values, cycled
)

var loopDispatch = &workload{
	Name:       "loop_dispatch",
	Unit:       "iteration",
	UnitsPerOp: loopIters,
	Callers:    1,
	LimitMs:    40,
	Params: map[string]any{
		"iterations": loopIters, "loop_vars": 2, "body": "i+1; acc*a+b (3 scalar ops)",
		"parallel_iterations": "default", "inputs_cycled": loopInputs,
	},
	start: startLoop,
}

// loopResult is one call's two loop variables.
type loopResult struct{ count, acc float64 }

func startLoop(seed uint64, _ string) (func() (*instance, error), error) {
	bs := dcf.RandUniform(seed, 0.5, 1.5, loopInputs).F
	feeds := make([]*dcf.Value, loopInputs)
	want := make([]float64, loopInputs)
	for k, b := range bs {
		feeds[k] = dcf.ScalarVal(b)
		want[k] = affineLoopRef(1, loopA, b, loopIters)
	}

	return func() (*instance, error) {
		g := dcf.NewGraph()
		b := g.Placeholder("b")
		n, a := g.Scalar(loopIters), g.Scalar(loopA)
		outs := g.While(
			[]dcf.Tensor{g.Scalar(0), g.Scalar(1)},
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(n) },
			func(v []dcf.Tensor) []dcf.Tensor {
				return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].Mul(a).Add(b)}
			},
			dcf.WhileOpts{Name: "dispatch"})
		if err := g.Err(); err != nil {
			return nil, err
		}
		sess := dcf.NewSession(g)
		call, err := sess.MakeCallable(dcf.CallableSpec{Feeds: []string{"b"}, Fetches: outs})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		inst := &instance{
			call: func(_, i int) (any, error) {
				out, err := call.Call(ctx, feeds[i%loopInputs])
				if err != nil {
					return nil, err
				}
				return loopResult{out[0].ScalarValue(), out[1].ScalarValue()}, nil
			},
			callTraced: func(_, i int) (any, []progSpan, error) {
				out, md, err := sess.RunCtx(ctx, dcf.RunOptions{
					Feeds: dcf.Feeds{"b": feeds[i%loopInputs]}, Fetches: outs, Trace: true,
				})
				if err != nil {
					return nil, nil, err
				}
				return loopResult{out[0].ScalarValue(), out[1].ScalarValue()}, tracerSpans(md.StepTrace), nil
			},
			check: func(i int, res any) error {
				r := res.(loopResult)
				if r.count != loopIters || r.acc != want[i%loopInputs] {
					return fmt.Errorf("loop_dispatch: got (count %v, acc %v), want (%d, %v)", r.count, r.acc, loopIters, want[i%loopInputs])
				}
				return nil
			},
			close: sess.Close,
		}
		if err := inst.callChecked(0, 0); err != nil {
			sess.Close()
			return nil, fmt.Errorf("loop_dispatch: first call: %w", err)
		}
		return inst, nil
	}, nil
}
