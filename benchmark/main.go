// Command benchmark is the repository's benchmark: four closed-loop
// workloads (rnn_train, loop_dispatch, serve_http, cluster_loop), five
// end-to-end metrics each as medians over six segments, and a traced run
// that times the public functions of each module from outside. See
// README.md for why each workload and metric was chosen.
//
//	bash benchmark/run.sh                          # every workload, untraced
//	bash benchmark/run.sh -traced                  # every workload, per-layer numbers + trace files
//	bash benchmark/run.sh -selfcheck               # the suite twice; fails if two runs disagree beyond the bounds
//	bash benchmark/run.sh --workload rnn_train --seed 1 --seconds 27 --trace 0   # one run, as the driver makes it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: every workload)")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs; the program sees only the inputs")
		seconds   = flag.Float64("seconds", 27, "measured seconds per run: six segments of seconds/6")
		trace     = flag.Int("trace", 0, "1: the traced run (per-layer metrics, trace file); 0: end-to-end metrics")
		traced    = flag.Bool("traced", false, "same as -trace 1")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice in alternating order and fail if any end-to-end metric differs by more than its bound")
		dcfserve  = flag.String("dcfserve", ".bench_build/dcfserve", "path of the built cmd/dcfserve binary (run.sh builds it)")
		outDir    = flag.String("out", ".bench_build/out", "directory for trace files and JSON reports")
	)
	flag.Parse()
	cfg := runConfig{
		seed: *seed, seconds: *seconds, traced: *traced || *trace == 1,
		dcfserve: *dcfserve, outDir: *outDir,
	}
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [-selfcheck]")
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(cfg)
	case *name != "":
		err = driverRun(*name, cfg)
	default:
		for _, w := range workloads {
			if _, err = runAndPrint(w, cfg); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAndPrint runs one workload, prints its report and keeps the JSON form
// beside the traces.
func runAndPrint(w *workload, cfg runConfig) (*Report, error) {
	rep, err := runWorkload(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep.print(os.Stdout)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	js, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	kind := "untraced"
	if rep.Traced {
		kind = "traced"
	}
	return rep, os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("%s.%s.report.json", w.Name, kind)), js, 0o644)
}

// driverRun is one run as the pipeline's driver makes it: the report, then
// as the last line one JSON object with correct, attempted, failed and the
// metrics of the chosen kind.
func driverRun(name string, cfg runConfig) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	rep, err := runAndPrint(w, cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Counts.Attempted, rep.Counts.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// selfCheck runs the untraced suite twice, the second time in reverse
// order, and compares every end-to-end metric against its bound.
func selfCheck(cfg runConfig) error {
	cfg.traced = false
	order := slices.Clone(workloads)
	var runs [2]map[string]*Report
	for k := range runs {
		runs[k] = map[string]*Report{}
		for _, w := range order {
			rep, err := runAndPrint(w, cfg)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s: incorrect: %s", w.Name, rep.Error)
			}
			runs[k][w.Name] = rep
		}
		slices.Reverse(order)
	}
	fmt.Println("# selfcheck: workload/metric first second difference bound verdict")
	bad := 0
	for _, w := range workloads {
		a, b := runs[0][w.Name], runs[1][w.Name]
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			verdict := "ok"
			if !withinBound(va, vb, m.Bound) {
				verdict = "EXCEEDS"
				bad++
			}
			fmt.Printf("selfcheck %s/%s %.6g %.6g %.4f %.2f %s\n", w.Name, m.Name, va, vb, relDiff(va, vb), m.Bound, verdict)
		}
		if a.NoisyHost || b.NoisyHost {
			fmt.Printf("# selfcheck %s ran on a noisy_host (speed drift %.3f, %.3f)\n", w.Name, a.HostSpeedDriftShare, b.HostSpeedDriftShare)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}
