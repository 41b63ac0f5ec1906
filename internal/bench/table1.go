package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/dcf"
	"repro/internal/nn"
)

// Table1Row is one column of Table 1: LSTM training time per loop iteration
// at a given sequence length, with memory swapping disabled vs enabled.
// OOM mirrors the paper's "OOM" entries.
type Table1Row struct {
	SeqLen      int
	DisabledMs  float64
	DisabledOOM bool
	EnabledMs   float64
	EnabledOOM  bool
}

// Table1Config parameterizes the experiment. The model is scaled down from
// the paper's 512-unit/batch-512 LSTM so pure-Go math keeps wall time
// sensible; the device capacity is calibrated so that sequences a bit over
// CalibrateLen exhaust device memory without swapping — reproducing the
// paper's OOM boundary between 500 and 600.
type Table1Config struct {
	SeqLens      []int
	Units        int
	Batch        int
	In           int
	CalibrateLen int
	Bandwidth    float64
}

// DefaultTable1 mirrors the paper's sweep.
func DefaultTable1(quick bool) Table1Config {
	cfg := Table1Config{
		SeqLens:      []int{100, 200, 500, 600, 700, 900, 1000},
		Units:        32,
		Batch:        8,
		In:           16,
		CalibrateLen: 500,
		Bandwidth:    20e9,
	}
	if quick {
		cfg.SeqLens = []int{50, 100, 150}
		cfg.CalibrateLen = 100
	}
	return cfg
}

// buildLSTMTrainStep builds one LSTM training step (forward + gradients +
// SGD) on device gpu:0 and returns the graph, loss, and step op.
func buildLSTMTrainStep(cfg Table1Config, swap bool) (*dcf.Graph, dcf.Tensor, dcf.Op, error) {
	g := dcf.NewGraph()
	var cell *nn.LSTMCell
	var loss dcf.Tensor
	var step dcf.Op
	var err error
	g.WithDevice("gpu:0", func() {
		cell = nn.NewLSTMCell(g, "lstm", cfg.In, cfg.Units, 1)
		x := g.Placeholder("x")
		h0 := g.Const(dcf.Zeros(cfg.Batch, cfg.Units))
		c0 := g.Const(dcf.Zeros(cfg.Batch, cfg.Units))
		r := nn.DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
		loss = r.Outputs.Square().ReduceMean(nil, false)
		step, err = nn.SGDStep(g, loss, &cell.Vars, 0.01, swap)
	})
	if err != nil {
		return nil, dcf.Tensor{}, dcf.Op{}, err
	}
	return g, loss, step, g.Err()
}

// calibrateCapacity measures the device high-water mark for a training step
// at CalibrateLen with unlimited memory, returning a capacity that fits
// CalibrateLen but not ~20% longer sequences.
func calibrateCapacity(cfg Table1Config) (int64, error) {
	g, _, step, err := buildLSTMTrainStep(cfg, false)
	if err != nil {
		return 0, err
	}
	sess := dcf.NewSessionOpts(g, dcf.SessionOptions{
		Devices: []dcf.DeviceConfig{{Name: "gpu:0"}},
	})
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		return 0, err
	}
	x := dcf.RandNormal(3, 0, 1, cfg.CalibrateLen, cfg.Batch, cfg.In)
	if err := sess.RunTargets(dcf.Feeds{"x": x}, step); err != nil {
		return 0, err
	}
	peak := sess.DevicePeak("gpu:0")
	if peak == 0 {
		return 0, fmt.Errorf("table1: no device memory recorded during calibration")
	}
	return peak + peak/10, nil // ~10% headroom above CalibrateLen
}

// runTable1Cell runs one (seqLen, swap) measurement, returning ms per loop
// iteration or OOM.
func runTable1Cell(cfg Table1Config, capacity int64, seqLen int, swap bool) (float64, bool, error) {
	g, _, step, err := buildLSTMTrainStep(cfg, swap)
	if err != nil {
		return 0, false, err
	}
	sess := dcf.NewSessionOpts(g, dcf.SessionOptions{
		Devices: []dcf.DeviceConfig{{
			Name:          "gpu:0",
			MemoryBytes:   capacity,
			CopyBandwidth: cfg.Bandwidth,
		}},
	})
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		return 0, false, err
	}
	x := dcf.RandNormal(3, 0, 1, seqLen, cfg.Batch, cfg.In)
	d, err := timeIt(func() error {
		return sess.RunTargets(dcf.Feeds{"x": x}, step)
	})
	if err != nil {
		if strings.Contains(err.Error(), "out of memory") {
			return 0, true, nil
		}
		return 0, false, err
	}
	return d.Seconds() * 1e3 / float64(seqLen), false, nil
}

// Table1 runs the sequence-length sweep with swapping disabled and enabled.
func Table1(cfg Table1Config, w io.Writer) ([]Table1Row, error) {
	capacity, err := calibrateCapacity(cfg)
	if err != nil {
		return nil, fmt.Errorf("table1 calibration: %w", err)
	}
	fprintf(w, "Table 1: LSTM training time per loop iteration (ms); device capacity %d bytes (fits ~%d steps)\n",
		capacity, cfg.CalibrateLen)
	fprintf(w, "%8s %14s %14s\n", "seq len", "swap disabled", "swap enabled")
	var rows []Table1Row
	for _, T := range cfg.SeqLens {
		dms, doom, err := runTable1Cell(cfg, capacity, T, false)
		if err != nil {
			return nil, fmt.Errorf("table1 T=%d disabled: %w", T, err)
		}
		ems, eoom, err := runTable1Cell(cfg, capacity, T, true)
		if err != nil {
			return nil, fmt.Errorf("table1 T=%d enabled: %w", T, err)
		}
		row := Table1Row{SeqLen: T, DisabledMs: dms, DisabledOOM: doom, EnabledMs: ems, EnabledOOM: eoom}
		rows = append(rows, row)
		cell := func(ms float64, oom bool) string {
			if oom {
				return "OOM"
			}
			return fmt.Sprintf("%.3f", ms)
		}
		fprintf(w, "%8d %14s %14s\n", T, cell(dms, doom), cell(ems, eoom))
	}
	return rows, nil
}

// Fig13Result summarizes the Figure 13 timeline: compute/copy stream
// activity and their overlap during a swap-enabled training step.
type Fig13Result struct {
	ComputeBusy time.Duration
	D2HBusy     time.Duration
	H2DBusy     time.Duration
	OverlapD2H  time.Duration
	Timeline    string
	ChromeJSON  []byte
}

// Fig13 records per-stream kernel timelines for a swap-enabled LSTM
// training step, reproducing the structure of the paper's Figure 13: copy
// kernels on the DtoH/HtoD streams proceeding in parallel with compute.
func Fig13(cfg Table1Config, seqLen int, w io.Writer) (*Fig13Result, error) {
	g, _, step, err := buildLSTMTrainStep(cfg, true)
	if err != nil {
		return nil, err
	}
	sess := dcf.NewSessionOpts(g, dcf.SessionOptions{
		Devices: []dcf.DeviceConfig{{Name: "gpu:0", CopyBandwidth: cfg.Bandwidth / 100}},
		Trace:   true,
	})
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		return nil, err
	}
	x := dcf.RandNormal(3, 0, 1, seqLen, cfg.Batch, cfg.In)
	if err := sess.RunTargets(dcf.Feeds{"x": x}, step); err != nil {
		return nil, err
	}
	tr := sess.Tracer()
	busy := tr.BusyTime()
	js, err := tr.ChromeTrace()
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{
		ComputeBusy: busy["gpu:0/compute"],
		D2HBusy:     busy["gpu:0/memcpyDtoH"],
		H2DBusy:     busy["gpu:0/memcpyHtoD"],
		OverlapD2H:  tr.OverlapTime("gpu:0/compute", "gpu:0/memcpyDtoH"),
		Timeline:    tr.ASCII(100),
		ChromeJSON:  js,
	}
	fprintf(w, "Figure 13: GPU stream timelines with memory swapping (seq len %d)\n%s", seqLen, res.Timeline)
	fprintf(w, "compute busy %v, DtoH busy %v (overlap with compute %v), HtoD busy %v\n",
		res.ComputeBusy.Round(time.Microsecond), res.D2HBusy.Round(time.Microsecond),
		res.OverlapD2H.Round(time.Microsecond), res.H2DBusy.Round(time.Microsecond))
	return res, nil
}
