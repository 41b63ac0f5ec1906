package main

import "fmt"

// workload is one closed-loop workload: fixed parameters, how its inputs
// come from the seed, and how to bring the system up cold.
type workload struct {
	Name string
	// Unit names the work unit throughput_per_s counts; UnitsPerOp is how
	// many of them one operation completes.
	Unit       string
	UnitsPerOp int
	// Callers is the number of closed-loop load goroutines (for serve_http,
	// also the number of keep-alive connections).
	Callers int
	// LimitMs is the fixed latency limit of ok_under_limit_share: 2.5 × the
	// p50 measured when the benchmark was defined. Frozen; see README.
	LimitMs float64
	// Params records the workload's sizes in every report.
	Params map[string]any
	// start generates the inputs (and the oracle's expected answers) from
	// the seed, untimed, and returns a function that brings the system up
	// from nothing and performs one verified operation; the wall time of
	// that function is one setup_s sample. dcfserve is the path of the
	// built cmd/dcfserve binary, for the workload that drives it.
	start func(seed uint64, dcfserve string) (func() (*instance, error), error)
}

// instance is one running system under load.
type instance struct {
	// call performs operation i for caller c and returns its raw result;
	// the runner times it. check then judges the result, untimed.
	call  func(c, i int) (any, error)
	check func(i int, res any) error
	// callTraced is call through the program's already-public tracing
	// entry point (RunOptions.Trace, RunTraced), returning the program's
	// own spans for that step. The traced run uses it for every 50th
	// operation.
	callTraced func(c, i int) (any, []progSpan, error)
	// finish is the end-of-run oracle (e.g. the loss fell); may be nil.
	finish func() error
	close  func()
}

// callChecked is one untimed operation with its oracle: what every cold
// set-up ends with.
func (in *instance) callChecked(c, i int) error {
	res, err := in.call(c, i)
	if err != nil {
		return err
	}
	return in.check(i, res)
}

// opsPerTracedCall: the traced run takes a program trace on its first and
// then every 50th operation, enough for a steady median without the spans
// dominating.
const opsPerTracedCall = 50

var workloads = []*workload{rnnTrain, loopDispatch, serveHTTP, clusterLoop}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
