// Package bench holds the drivers for the paper figures (§6) that still say
// something the repo benchmark (benchmark/) does not: Figure 11 (iteration
// rate of a while-loop distributed over worker daemons, with and without a
// barrier), Figure 12 (the parallel-iterations window on a pipelined
// loop), Table 1 with Figure 13 (memory swapping: the OOM boundary and the
// copy/compute overlap) and Figure 14 (dynamic loop against static
// unrolling). Each driver returns the rows the paper reports and
// cmd/dcfbench prints them. Absolute numbers differ (the substrate is a
// simulator on a CPU, not a GPU cluster); the comparisons keep the paper's
// shapes: who wins, by what rough factor, and where the failure boundaries
// fall. Nothing here is a baseline: timings that gate a PR come from
// benchmark/.
package bench

import (
	"fmt"
	"io"
	"time"
)

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
