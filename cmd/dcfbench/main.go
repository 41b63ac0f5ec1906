// Command dcfbench prints the paper figures (§6) that internal/bench still
// drives: Figure 11, Figure 12, Table 1 with Figure 13, and Figure 14. Run
// all of them or one by id:
//
//	dcfbench                  # everything, full sweeps
//	dcfbench -quick           # reduced sweeps (CI scale)
//	dcfbench -exp fig11       # one experiment
//	dcfbench -exp fig13 -out fig13_timeline
//	dcfbench -exp fig12 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiment ids: fig11, fig12, table1, fig13, fig14. Figure 11 brings one
// worker daemon per machine up on loopback TCP and runs the distributed
// while-loop through distrib.Fleet, the only runner there is. -out writes
// Figure 13's timeline as <prefix>.txt and its Chrome trace as
// <prefix>.json. -cpuprofile/-memprofile write pprof profiles covering the
// selected experiments (go tool pprof cpu.pprof).
//
// The numbers printed here gate nothing: timings that decide a PR come from
// the repo benchmark (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() {
	os.Exit(run1())
}

// run1 is main's body; returning the exit code (instead of calling os.Exit
// inline) lets the deferred profile writers run on failure paths too.
func run1() int {
	exp := flag.String("exp", "all", "experiment id (fig11|fig12|table1|fig13|fig14|all)")
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	out := flag.String("out", "", "fig13: also write the timeline to <out>.txt and the Chrome trace to <out>.json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()

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

	run := func(id string) error {
		switch id {
		case "fig11":
			_, err := bench.Fig11(bench.DefaultFig11(*quick), os.Stdout)
			return err
		case "fig12":
			_, err := bench.Fig12(bench.DefaultFig12(*quick), os.Stdout)
			return err
		case "table1":
			_, err := bench.Table1(bench.DefaultTable1(*quick), os.Stdout)
			return err
		case "fig13":
			seq := 400
			if *quick {
				seq = 80
			}
			res, err := bench.Fig13(bench.DefaultTable1(*quick), seq, os.Stdout)
			if err != nil || *out == "" {
				return err
			}
			if err := os.WriteFile(*out+".txt", []byte(res.Timeline), 0o644); err != nil {
				return err
			}
			if err := os.WriteFile(*out+".json", res.ChromeJSON, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s.txt and %s.json\n", *out, *out)
			return nil
		case "fig14":
			_, err := bench.Fig14(bench.DefaultFig14(*quick), os.Stdout)
			return err
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig11", "fig12", "table1", "fig13", "fig14"}
	}
	for _, id := range ids {
		fmt.Printf("==== %s ====\n", id)
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			return 1
		}
		fmt.Println()
	}
	return 0
}
