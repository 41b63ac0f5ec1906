// Command dcfbench regenerates the tables and figures of the paper's
// evaluation (§6). Run all experiments or one by id:
//
//	dcfbench                  # everything, full sweeps
//	dcfbench -exp fig11       # one experiment
//	dcfbench -quick           # reduced sweeps (CI scale)
//	dcfbench -exp fig13 -out fig13_timeline.txt
//	dcfbench -exp fig12 -cpuprofile cpu.pprof -memprofile mem.pprof
//	dcfbench -exp serving -concurrency 16
//	dcfbench -quick -json BENCH.json       # machine-readable results
//	dcfbench -exp fig11 -workers 4 -fuse   # A/B the executor knobs
//
// Experiment ids: fig11, fig12, table1, fig13, fig14, fig15, dqn,
// ablations, serving, batchserve, tcpdist, chaos, fleetserve. The
// fleetserve experiment sweeps the replicated serving router
// (internal/fleetserve) over replica counts {1,2,4} in closed and open
// loop, with and without one replica daemon killed and restarted mid-run,
// reporting before/during/after-kill throughput and the recovery time to
// readmission. The tcpdist experiment brings
// worker daemons up on loopback TCP, registers a partitioned while-loop
// through the multi-process cluster runtime (distrib.Dial/TCPCluster), and
// sweeps steps/sec against worker count and injected one-way fabric
// latency. The serving experiment drives a shared
// pre-compiled Callable from -concurrency goroutines and reports aggregate
// steps/sec per concurrency level (the paper's §3 multi-tenant server
// shape). The batchserve experiment puts the adaptive request batcher
// (dcf.Server) on top and sweeps the latency/throughput frontier against
// that unbatched baseline; -batch caps micro-batch rows and -delay bounds
// each request's wait for batch-mates:
//
//	dcfbench -exp batchserve -batch 32 -delay 1ms -concurrency 32
//
// The -cpuprofile/-memprofile flags write pprof profiles covering the
// selected experiments, so perf work on the figures needs no code edits:
// go tool pprof cpu.pprof.
//
// The executor knobs apply to every experiment: -workers N sizes the
// kernel worker pool (0 = one worker per core), and -fuse compiles elementwise
// chains into fused nodes before execution. -json writes the selected
// experiments' rows plus elapsed/alloc counters as one JSON document (the
// BENCH_*.json files tracking the perf trajectory across PRs).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run1())
}

// run1 is main's body; returning the exit code (instead of calling os.Exit
// inline) lets the deferred profile writers run on failure paths too.
func run1() int {
	exp := flag.String("exp", "all", "experiment id (fig11|fig12|table1|fig13|fig14|fig15|dqn|ablations|serving|batchserve|tcpdist|chaos|fleetserve|all)")
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	concurrency := flag.Int("concurrency", runtime.GOMAXPROCS(0)*2, "top of the serving/batchserve experiments' goroutine sweep")
	batch := flag.Int("batch", 32, "batchserve: max rows per micro-batch")
	delay := flag.Duration("delay", time.Millisecond, "batchserve: max time a request waits for batch-mates")
	out := flag.String("out", "", "also write figure artifacts (fig13 timeline / chrome trace) to this path prefix")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	jsonOut := flag.String("json", "", "write machine-readable results (rows, elapsed ns, allocs, steps/sec) to this file")
	workers := flag.Int("workers", 0, "kernel worker pool size per step (0 = one per core)")
	fuse := flag.Bool("fuse", false, "fuse elementwise chains in every experiment graph before execution")
	traceOut := flag.String("trace", "", "tcpdist: trace one distributed step and write the merged Chrome trace JSON here")
	flag.Parse()
	bench.Workers = *workers
	bench.Fuse = *fuse
	bench.TraceOut = *traceOut

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	run := func(id string) (any, error) {
		switch id {
		case "fig11":
			return bench.Fig11(bench.DefaultFig11(*quick), os.Stdout)
		case "fig12":
			return bench.Fig12(bench.DefaultFig12(*quick), os.Stdout)
		case "table1":
			return bench.Table1(bench.DefaultTable1(*quick), os.Stdout)
		case "fig13":
			cfg := bench.DefaultTable1(*quick)
			seq := 400
			if *quick {
				seq = 80
			}
			res, err := bench.Fig13(cfg, seq, os.Stdout)
			if err != nil {
				return nil, err
			}
			if *out != "" {
				if err := os.WriteFile(*out+".txt", []byte(res.Timeline), 0o644); err != nil {
					return nil, err
				}
				if err := os.WriteFile(*out+".json", res.ChromeJSON, 0o644); err != nil {
					return nil, err
				}
				fmt.Printf("wrote %s.txt and %s.json\n", *out, *out)
			}
			return nil, nil
		case "fig14":
			return bench.Fig14(bench.DefaultFig14(*quick), os.Stdout)
		case "fig15":
			return bench.Fig15(bench.DefaultFig15(*quick), os.Stdout)
		case "dqn":
			return bench.DQN(bench.DefaultDQN(*quick), os.Stdout)
		case "serving":
			return bench.Serving(context.Background(), bench.DefaultServing(*quick, *concurrency), os.Stdout)
		case "batchserve":
			return bench.BatchServe(context.Background(), bench.DefaultBatchServe(*quick, *concurrency, *batch, *delay), os.Stdout)
		case "tcpdist":
			return bench.TCPDist(bench.DefaultTCPDist(*quick), os.Stdout)
		case "chaos":
			dir, err := os.MkdirTemp("", "dcf-chaos-ck-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			return bench.Chaos(context.Background(), bench.DefaultChaos(*quick), dir, os.Stdout)
		case "fleetserve":
			return bench.FleetServe(context.Background(), bench.DefaultFleetServe(*quick, *concurrency), os.Stdout)
		case "ablations":
			res := map[string]float64{}
			for _, n := range []int{16, 256} {
				us, err := bench.AblationDeadness(n, 50, os.Stdout)
				if err != nil {
					return nil, err
				}
				res[fmt.Sprintf("deadness_%d_us_per_step", n)] = us
			}
			ns, err := bench.AblationTagOverhead(256, 50, os.Stdout)
			if err != nil {
				return nil, err
			}
			res["tag_overhead_ns_per_op"] = ns
			off, on, err := bench.AblationStackSwap(40, 64, os.Stdout)
			if err != nil {
				return nil, err
			}
			res["stack_swap_off_sec"] = off
			res["stack_swap_on_sec"] = on
			return res, nil
		default:
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig11", "fig12", "table1", "fig13", "fig14", "fig15", "dqn", "ablations", "serving", "batchserve", "tcpdist", "chaos", "fleetserve"}
	}
	report := bench.NewReport(*quick, runtime.GOMAXPROCS(0))
	for _, id := range ids {
		fmt.Printf("==== %s ====\n", id)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		rows, err := run(id)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			return 1
		}
		res := &bench.ExperimentResult{
			ElapsedNs:    elapsed.Nanoseconds(),
			AllocObjects: m1.Mallocs - m0.Mallocs,
			AllocBytes:   m1.TotalAlloc - m0.TotalAlloc,
			Rows:         rows,
		}
		bench.Summarize(rows, res)
		report.Experiments[id] = res
		fmt.Println()
	}
	if *jsonOut != "" {
		if err := report.WriteJSON(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return 0
}
