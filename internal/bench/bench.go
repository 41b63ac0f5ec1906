// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment has a driver returning the same
// rows/series the paper reports; DESIGN.md maps experiment ids to paper
// artifacts and EXPERIMENTS.md records paper-reported versus measured
// values. Absolute numbers differ (the substrate is a simulator on a CPU,
// not a GPU cluster); the comparisons preserve the paper's shapes: who
// wins, by what rough factor, and where the crossovers and failure
// boundaries fall.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/dcf"
	"repro/internal/optimize"
)

// Workers and Fuse are the suite-wide execution knobs behind dcfbench's
// -workers and -fuse flags: every driver builds sessions through
// newSession/newSessionOpts (which apply both), so one flag A/Bs the worker
// pool and elementwise fusion across every experiment.
var (
	// Workers sizes each step's kernel worker pool (0 = default).
	Workers int
	// Fuse compiles elementwise chains into FusedElementwise nodes in
	// every experiment graph before execution.
	Fuse bool
	// TraceOut, when non-empty, makes the tcpdist experiment trace one
	// distributed step (its first sweep cell) and write the merged Chrome
	// trace-event JSON to this path (dcfbench's -trace flag).
	TraceOut string
)

// maybeFuse applies the elementwise-fusion pass when the knob is set.
// Drivers call it (directly or via newSession*) after graph construction,
// which in every experiment happens after any Gradients call.
func maybeFuse(g *dcf.Graph) error {
	if !Fuse {
		return nil
	}
	_, err := optimize.FuseElementwise(g.Builder().G)
	return err
}

// newSessionOpts is the drivers' session chokepoint: it applies the fusion
// knob to the graph and the workers knob to the options.
func newSessionOpts(g *dcf.Graph, opts dcf.SessionOptions) (*dcf.Session, error) {
	if err := maybeFuse(g); err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = Workers
	}
	return dcf.NewSessionOpts(g, opts), nil
}

// newSession is newSessionOpts with default options.
func newSession(g *dcf.Graph) (*dcf.Session, error) {
	return newSessionOpts(g, dcf.SessionOptions{})
}

// Quick scales experiments down for CI-speed runs (used by bench_test.go);
// the CLI (cmd/dcfbench) runs the full sweeps.
type Scale struct {
	// Quick selects reduced parameter sweeps.
	Quick bool
}

// timeIt returns the duration of fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// fprintf writes to w if non-nil (drivers can run silently).
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
