package bench

import (
	"bytes"
	"strings"
	"testing"
)

// These tests run every experiment driver at quick scale and check what a
// single run can establish: that the driver completes, its rows are well
// formed, and — where the outcome is a count or an event rather than a
// timing (an OOM, a recorded overlap) — that the paper's qualitative shape
// shows. Ratios of two wall-clock measurements from one repeat (Fig. 11,
// Fig. 14) are reported by cmd/dcfbench and not asserted here: on a shared
// host they fail on parent and change alike, and a faster kernel raises
// the dynamic/static ratio by construction.

func TestFig11Shape(t *testing.T) {
	rows, err := Fig11(DefaultFig11(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatal("too few rows")
	}
	for _, r := range rows {
		if r.NoBarrierIPS <= 0 || r.BarrierIPS <= 0 {
			t.Fatalf("non-positive rate: %+v", r)
		}
	}
	// Not asserted: barrier ≤ no-barrier and the fall of the rate with the
	// machine count. Both compare two timings of one repeat.
}

func TestFig12Shape(t *testing.T) {
	rows, err := Fig12(DefaultFig12(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel iterations must beat serial substantially on a pipelined
	// 8-GPU body (the paper reports ~5x; we require >1.5x at quick scale).
	serial := rows[0].IPS
	best := serial
	for _, r := range rows {
		if r.IPS > best {
			best = r.IPS
		}
	}
	if best < serial*1.5 {
		t.Fatalf("pipelining speedup too small: serial %.1f best %.1f", serial, best)
	}
}

func TestTable1Shape(t *testing.T) {
	cfg := DefaultTable1(true)
	rows, err := Table1(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sawOOM := false
	for _, r := range rows {
		if r.EnabledOOM {
			t.Fatalf("swap-enabled must not OOM: %+v", r)
		}
		if r.SeqLen > cfg.CalibrateLen && r.DisabledOOM {
			sawOOM = true
		}
		if r.SeqLen <= cfg.CalibrateLen && r.DisabledOOM {
			t.Fatalf("disabled OOM below the calibration point: %+v", r)
		}
	}
	if !sawOOM {
		t.Fatal("expected the swap-disabled column to OOM past the calibration length")
	}
}

func TestFig13ProducesOverlap(t *testing.T) {
	cfg := DefaultTable1(true)
	res, err := Fig13(cfg, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeBusy == 0 || res.D2HBusy == 0 {
		t.Fatalf("missing stream activity: %+v", res)
	}
	if res.OverlapD2H == 0 {
		t.Fatal("no compute/copy overlap recorded")
	}
	if !strings.Contains(res.Timeline, "#") {
		t.Fatal("empty timeline rendering")
	}
}

func TestFig14Shape(t *testing.T) {
	rows, err := Fig14(DefaultFig14(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.StaticSec <= 0 || r.DynamicSec <= 0 {
			t.Fatalf("bad timing: %+v", r)
		}
		// Not asserted: SlowdownPct. The dispatch cost a dynamic loop adds
		// is fixed per node, so the ratio to static unrolling rises
		// whenever the kernels get faster; rnn_train in the repo
		// benchmark measures the dynamic path's absolute cost.
	}
}

func TestDriversWriteTables(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Fig11(Fig11Config{Machines: []int{1}, Iterations: 10, MatrixDim: 4}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Fatalf("missing header: %s", buf.String())
	}
}
