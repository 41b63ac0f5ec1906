package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one metric; the tables below are the single source of
// the names BENCHMARK.json lists (a test holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // higher is better
	Bound  float64 // end-to-end only: share by which the median may worsen
}

// endToEnd are the five numbers a user of the system pays for, the same on
// every workload. The timing bounds are the widest the pipeline allows:
// on the shared 2-core pipeline host, whole runs sit 10–20 % off the others
// for minutes at a time, and the quartile distance of ten runs reached 13 %
// of the median for throughput and 18 % for p95; see README.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"throughput_per_s", "1/s", true, 0.25},
	{"latency_ms_p50", "ms", false, 0.25},
	{"latency_ms_p95", "ms", false, 0.25},
	{"ok_under_limit_share", "share", true, 0.05},
}

// perLayer are the traced run's numbers, one module each.
var perLayer = []metricDef{
	{"tensor.matmul_train_us", "us", false, 0},
	{"tensor.matmul_infer_us", "us", false, 0},
	{"tensor.transpose_us", "us", false, 0},
	{"tensor.bcast_add_us", "us", false, 0},
	{"tensor.unbroadcast_us", "us", false, 0},
	{"tensor.concat_rows_us", "us", false, 0},
	{"tensor.slice_rows_us", "us", false, 0},
	{"tensor.pool_peak_bytes", "bytes", false, 0},
	{"tensor.kernel_share", "share", false, 0},
	{"exec.ns_per_node", "ns", false, 0},
	{"exec.nodes_per_step", "count", false, 0},
	{"core.call_fixed_us", "us", false, 0},
	{"core.allocs_per_call", "count", false, 0},
	{"autodiff.gradients_ms", "ms", false, 0},
	{"core.make_callable_ms", "ms", false, 0},
	{"graph.nodes_total", "count", false, 0},
	{"serve.predict_direct_us", "us", false, 0},
	{"serve.predict_batched_us", "us", false, 0},
	{"serve.avg_batch_rows", "rows", true, 0},
	{"serve.queue_wait_us_p50", "us", false, 0},
	{"dcfserve.http_overhead_us", "us", false, 0},
	{"dcfserve.cpu_ms_per_request", "ms", false, 0},
	{"dcfserve.peak_rss_mb", "MB", false, 0},
	{"rendezvous.hop_us_128k", "us", false, 0},
	{"rendezvous.mb_per_s_128k", "MB/s", true, 0},
	{"rendezvous.allocs_per_send_128k", "count", false, 0},
	{"rendezvous.hop_us_scalar", "us", false, 0},
	{"rendezvous.local_hop_us_128k", "us", false, 0},
	{"distrib.step_fixed_us", "us", false, 0},
	{"distrib.iter_us", "us", false, 0},
	{"distrib.wire_share", "share", false, 0},
	{"cluster.register_ms", "ms", false, 0},
	{"trace.overhead_share", "share", false, 0},
}

// schemaVersion of Report. Later issues add fields; they do not rename.
const schemaVersion = 1

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the machine-readable record of one run of one workload.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Commit        string `json:"commit"`
	Seed          uint64 `json:"seed"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`

	Workload   string         `json:"workload"`
	Traced     bool           `json:"traced"`
	Params     map[string]any `json:"params"`
	Unit       string         `json:"work_unit"`
	UnitsPerOp int            `json:"units_per_op"`
	Callers    int            `json:"callers"`
	LimitMs    float64        `json:"limit_ms"`
	Seconds    float64        `json:"seconds"`

	// Segments are the untraced measured segments (in a traced run, the
	// untraced reference segments trace.overhead_share compares against).
	Segments      []segment `json:"segments"`
	OpsPerSegment []int     `json:"ops_per_segment"`
	// SetupSeconds are the kept cold set-ups setup_s is the median of.
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`
	Counts       counts    `json:"counts"`
	Correct      bool      `json:"correct"`
	Error        string    `json:"error,omitempty"`

	HostSpeedDriftShare float64 `json:"host_speed_drift_share"`
	NoisyHost           bool    `json:"noisy_host"`
	TraceFile           string  `json:"trace_file,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
}

// gitCommit names the checkout's commit when it is a git repository.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     uint64
	seconds  float64
	traced   bool
	dcfserve string // path of the built cmd/dcfserve binary
	outDir   string // trace and report files go here
	// setups and segments override setupRuns and segmentsPerRun (the smoke
	// tests bring the system up once and measure one segment).
	setups, segments int
}

// runWorkload measures one workload: untraced, the five end-to-end
// metrics; traced, every per-layer metric.
func runWorkload(w *workload, cfg runConfig) (*Report, error) {
	if w.Callers > runtime.NumCPU() {
		return nil, fmt.Errorf("%s wants %d load goroutines on a %d-core host; the generator would queue behind itself", w.Name, w.Callers, runtime.NumCPU())
	}
	rep := &Report{
		SchemaVersion: schemaVersion, Commit: gitCommit(), Seed: cfg.seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workload: w.Name, Traced: cfg.traced, Params: w.Params, Unit: w.Unit, UnitsPerOp: w.UnitsPerOp,
		Callers: w.Callers, LimitMs: w.LimitMs, Seconds: cfg.seconds,
		Metrics: map[string]metricValue{},
	}
	start, err := w.start(cfg.seed, cfg.dcfserve)
	if err != nil {
		return nil, err
	}
	speedBefore := hostSpeedMs()

	setups := cfg.setups
	if setups == 0 {
		setups = setupRuns
	}
	if cfg.traced {
		setups = 1
	}
	if cfg.segments == 0 {
		cfg.segments = segmentsPerRun
	}
	secs, inst, err := coldSetups(start, setups)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	l := &load{w: w, inst: inst}
	l.phase(time.Duration(warmupSeconds(cfg.seconds) * float64(time.Second)))
	if cfg.traced {
		err = rep.measureTraced(l, cfg)
	} else {
		rep.SetupSeconds = secs[min(setupDiscard, len(secs)-1):]
		rep.measure(l, cfg)
	}
	if err != nil {
		return nil, err
	}

	rep.Counts = l.counts
	if l.firstErr == nil && inst.finish != nil {
		l.firstErr = inst.finish()
	}
	if l.firstErr != nil {
		rep.Error = l.firstErr.Error()
	}
	rep.Correct = l.firstErr == nil && rep.Counts.Failed == 0
	speedAfter := hostSpeedMs()
	rep.HostSpeedDriftShare = (speedAfter - speedBefore) / speedBefore
	rep.NoisyHost = rep.HostSpeedDriftShare > 0.10 || rep.HostSpeedDriftShare < -0.10
	return rep, nil
}

// measure runs the untraced segments and fills the end-to-end metrics.
func (rep *Report) measure(l *load, cfg runConfig) {
	d := time.Duration(cfg.seconds / float64(cfg.segments) * float64(time.Second))
	rep.Segments = l.segments(cfg.segments, d)
	for _, s := range rep.Segments {
		rep.OpsPerSegment = append(rep.OpsPerSegment, s.Ops)
	}
	perSecond, p50, p95 := segmentMedians(rep.Segments)
	values := map[string]float64{
		"setup_s": median(rep.SetupSeconds), "throughput_per_s": perSecond,
		"latency_ms_p50": p50, "latency_ms_p95": p95, "ok_under_limit_share": l.counts.okUnderLimitShare(),
	}
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
}

// measureTraced splits the run three ways: untraced reference segments,
// the same load with spans recorded, then the layer probes.
func (rep *Report) measureTraced(l *load, cfg runConfig) error {
	d := time.Duration(cfg.seconds * 0.12 * float64(time.Second))
	rep.Segments = l.segments(3, d)
	for _, s := range rep.Segments {
		rep.OpsPerSegment = append(rep.OpsPerSegment, s.Ops)
	}
	l.rec = newRecorder()
	tracedSegs := l.segments(3, d)
	p := &prober{
		dur: time.Duration(cfg.seconds / 150 * float64(time.Second)), rec: l.rec,
		seed: cfg.seed, dcfserve: cfg.dcfserve, metrics: map[string]float64{},
	}
	if err := p.all(); err != nil {
		return err
	}

	// The step profile comes from the program's own traces of this
	// workload's operations; serve_http's child is out of reach, so its
	// profile is the in-process twin's step.
	prof := p.twin
	if l.inst.callTraced != nil {
		if len(l.profiles) == 0 {
			return fmt.Errorf("no program-traced operation succeeded: %v", l.firstErr)
		}
		var nodes, wall, kernel []float64
		for _, sp := range l.profiles {
			nodes, wall, kernel = append(nodes, float64(sp.Nodes)), append(wall, sp.WallNs), append(kernel, sp.KernelNs)
		}
		prof = stepProfile{Nodes: int(median(nodes)), WallNs: median(wall), KernelNs: median(kernel)}
	}
	p.metrics["tensor.kernel_share"] = prof.KernelNs / prof.WallNs
	p.metrics["exec.ns_per_node"] = prof.WallNs / float64(prof.Nodes)
	p.metrics["exec.nodes_per_step"] = float64(prof.Nodes)
	plain, _, _ := segmentMedians(rep.Segments)
	withSpans, _, _ := segmentMedians(tracedSegs)
	p.metrics["trace.overhead_share"] = 1 - withSpans/plain

	for _, m := range perLayer {
		v, ok := p.metrics[m.Name]
		if !ok {
			return fmt.Errorf("traced run produced no %s", m.Name)
		}
		rep.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	rep.TraceFile = filepath.Join(cfg.outDir, rep.Workload+".trace.json")
	return l.rec.writeChrome(rep.TraceFile)
}

// print writes the human-readable form: the run's conditions, the
// per-segment spread, the operation counts, then `workload/name value unit`.
func (rep *Report) print(out io.Writer) {
	params, _ := json.Marshal(rep.Params)
	fmt.Fprintf(out, "# %s traced=%v commit=%s seed=%d nproc=%d GOMAXPROCS=%d %s seconds=%g callers=%d limit_ms=%g\n",
		rep.Workload, rep.Traced, rep.Commit, rep.Seed, rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.Seconds, rep.Callers, rep.LimitMs)
	fmt.Fprintf(out, "# %s params %s\n", rep.Workload, params)
	var ps, p50, p95 []float64
	for _, s := range rep.Segments {
		ps, p50, p95 = append(ps, s.PerSecond), append(p50, s.P50Ms), append(p95, s.P95Ms)
	}
	spread := func(name string, xs []float64) {
		fmt.Fprintf(out, "# %s segments %s min/median/max %.4g / %.4g / %.4g\n", rep.Workload, name, percentile(xs, 0), median(xs), percentile(xs, 1))
	}
	spread(rep.Unit+"/s", ps)
	spread("p50_ms", p50)
	spread("p95_ms", p95)
	fmt.Fprintf(out, "# %s ops_per_segment %v (p95 has ≥ %d samples beyond it in the smallest)\n", rep.Workload, rep.OpsPerSegment, slices.Min(rep.OpsPerSegment)/20)
	fmt.Fprintf(out, "# %s attempted=%d ok=%d failed=%d over_limit=%d correct=%v\n",
		rep.Workload, rep.Counts.Attempted, rep.Counts.OK, rep.Counts.Failed, rep.Counts.OverLimit, rep.Correct)
	if rep.Error != "" {
		fmt.Fprintf(out, "# %s first error: %s\n", rep.Workload, rep.Error)
	}
	if m := slices.Min(rep.OpsPerSegment); m < minOpsPerSegment {
		fmt.Fprintf(out, "# %s WARNING a segment held %d operations, fewer than %d: its p95 is weak\n", rep.Workload, m, minOpsPerSegment)
	}
	fmt.Fprintf(out, "%s/host.speed_drift_share %.4f share\n", rep.Workload, rep.HostSpeedDriftShare)
	if rep.NoisyHost {
		fmt.Fprintf(out, "# %s noisy_host: the host's own speed moved more than 10%% during this run\n", rep.Workload)
	}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
		fmt.Fprintf(out, "# %s trace file %s\n", rep.Workload, rep.TraceFile)
	}
	for _, m := range defs {
		fmt.Fprintf(out, "%s/%s %.6g %s\n", rep.Workload, m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
}
