// Command dcfworker is the multi-process cluster runtime's CLI: it runs
// either a generic worker daemon or the driver of a distributed while-loop
// across a fleet of such daemons.
//
// Daemon mode (the default) starts a worker that accepts graph
// registrations and executes multi-step runs — it knows nothing about the
// graphs it will serve until a driver registers them:
//
//	dcfworker -worker wA -listen 127.0.0.1:7401 -health 127.0.0.1:8401
//	dcfworker -worker wB -listen 127.0.0.1:7402 -health 127.0.0.1:8402
//
// -health serves the daemon's HTTP observability surface: GET /healthz
// answers 200 while the daemon accepts work (CI and orchestrators poll it
// instead of guessing at startup timing), GET /metrics is the Prometheus
// text exposition of the process-wide registry (exec_*, cluster_*,
// tensor_pool_* families), /debug/pprof/ the standard Go profiles, and
// GET /debug/trace?steps=N arms tracing for the next N steps this worker
// runs and returns their merged Chrome trace JSON.
//
// Driver mode (-drive) dials the daemons, partitions a while-loop whose
// body threads a counter through every worker each iteration (a Send/Recv
// hop per worker, the Figure 6 shape generalized to N workers), registers
// the partitions, and runs -steps consecutive steps, each in its own
// rendezvous scope, verifying every result:
//
//	dcfworker -drive -addrs 127.0.0.1:7401,127.0.0.1:7402 -steps 100 -iters 10
//
// With -trace the driver additionally traces the first step across the
// whole fleet and writes one merged Chrome trace-event JSON file (open it
// in Perfetto): every worker's spans on their own process track, with
// flow arrows linking each cross-worker Send to its Recv:
//
//	dcfworker -drive -addrs ... -steps 10 -trace /tmp/step.trace.json
//
// With -checkpoint-dir the driver runs the stateful variant under the
// fault-tolerant job layer: the loop result accumulates into a session
// variable, distributed checkpoints land every -checkpoint-every steps, and
// any worker failure rolls the job back to the last checkpoint, rebuilds
// over the live daemons, and replays — so a daemon can be killed and
// restarted mid-run and the job still finishes with every step's value
// exactly what an undisturbed run produces (step k fetches k*iters):
//
//	dcfworker -drive -addrs ... -steps 1000 -checkpoint-dir /tmp/ck -checkpoint-every 50
//
// The daemon serves until SIGINT/SIGTERM. Failure model: killing a daemon
// mid-step fails only that step on the driver (with an error naming the
// worker); recovery is rollback to the last checkpoint, never fine-grained
// repair of the interrupted step (the paper's §3 model).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func main() {
	worker := flag.String("worker", "w0", "daemon: this worker's name (rendezvous keys route by it)")
	listen := flag.String("listen", "127.0.0.1:7401", "daemon: control address drivers dial")
	data := flag.String("data", "127.0.0.1:0", "daemon: rendezvous data-plane address (0 = ephemeral port)")
	health := flag.String("health", "", "daemon: HTTP readiness-probe address serving /healthz (empty = off)")
	drive := flag.Bool("drive", false, "run as driver instead of daemon")
	addrs := flag.String("addrs", "", "driver: comma-separated worker control addresses")
	steps := flag.Int("steps", 100, "driver: consecutive steps to run")
	iters := flag.Int("iters", 10, "driver: loop iterations per step (the fed trip count)")
	ckDir := flag.String("checkpoint-dir", "", "driver: run the fault-tolerant stateful job, checkpointing here")
	ckEvery := flag.Uint64("checkpoint-every", 50, "driver: checkpoint every n-th step")
	maxRetries := flag.Int("max-retries", 8, "driver: consecutive rollback attempts before the job fails")
	traceOut := flag.String("trace", "", "driver: trace the first step and write the merged Chrome trace JSON here")
	flag.Parse()

	if *drive {
		if *ckDir != "" {
			os.Exit(runJobDriver(strings.Split(*addrs, ","), *steps, *iters, *ckDir, *ckEvery, *maxRetries))
		}
		os.Exit(runDriver(strings.Split(*addrs, ","), *steps, *iters, *traceOut))
	}
	os.Exit(runDaemon(*worker, *listen, *data, *health))
}

func runDaemon(name, ctrlAddr, dataAddr, healthAddr string) int {
	w, err := cluster.NewWorker(name, ctrlAddr, dataAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("worker %s: control %s, data %s\n", w.Name(), w.Addr(), w.DataAddr())
	if healthAddr != "" {
		got, err := w.ServeHealth(healthAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			w.Close()
			return 1
		}
		fmt.Printf("worker %s: health %s\n", w.Name(), got)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("worker %s: shutting down\n", w.Name())
	w.Close()
	return 0
}

func runDriver(addrs []string, steps, iters int, traceOut string) int {
	if len(addrs) == 0 || addrs[0] == "" {
		fmt.Fprintln(os.Stderr, "driver mode needs -addrs")
		return 1
	}
	fleet, err := distrib.Dial(addrs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer fleet.Close()
	workers := fleet.Workers()
	fmt.Printf("driver: fleet %v\n", workers)

	b, outs := cluster.BuildHopLoop(workers)
	tc, err := fleet.NewCluster(b, outs, nil, distrib.TCPOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer tc.Close()

	limit := tensor.Scalar(float64(iters))
	start := time.Now()
	for s := 1; s <= steps; s++ {
		var vals []*tensor.Tensor
		if s == 1 && traceOut != "" {
			// Trace the first step end to end: every worker records its
			// spans and returns them with the step's reply, and the driver
			// merges one timeline.
			var js []byte
			vals, js, err = tc.RunTraced(context.Background(), map[string]*tensor.Tensor{"limit": limit})
			if err == nil {
				if werr := os.WriteFile(traceOut, js, 0o644); werr != nil {
					fmt.Fprintf(os.Stderr, "write trace: %v\n", werr)
					return 1
				}
				fmt.Printf("driver: wrote step 1 trace (%d bytes) to %s\n", len(js), traceOut)
			}
		} else {
			vals, err = tc.Run(map[string]*tensor.Tensor{"limit": limit})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "step %d: %v\n", s, err)
			return 1
		}
		if got := vals[0].ScalarValue(); got != float64(iters) {
			fmt.Fprintf(os.Stderr, "step %d: result %v, want %d\n", s, got, iters)
			return 1
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("driver: %d steps x %d iterations across %d workers in %v (%.1f steps/s, %.1f iters/s)\n",
		steps, iters, len(workers), elapsed.Round(time.Millisecond),
		float64(steps)/elapsed.Seconds(), float64(steps*iters)/elapsed.Seconds())
	return 0
}

// runJobDriver drives the stateful counter job under the fault-tolerant
// job layer and verifies every step's fetch: after step k the accumulator
// must hold exactly k*iters, so a rollback that lost or repeated state
// surfaces as a hard failure, not a statistical anomaly.
func runJobDriver(addrs []string, steps, iters int, ckDir string, ckEvery uint64, maxRetries int) int {
	if len(addrs) == 0 || addrs[0] == "" {
		fmt.Fprintln(os.Stderr, "driver mode needs -addrs")
		return 1
	}
	fleet, err := distrib.Dial(addrs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer fleet.Close()
	fmt.Printf("driver: fleet %v, checkpoints in %s every %d steps\n", fleet.Workers(), ckDir, ckEvery)

	limit := tensor.Scalar(float64(iters))
	spec := distrib.JobSpec{
		Build: func(workers []string) (*core.Builder, []graph.Output, error) {
			b, outs := cluster.BuildCounterJob(workers)
			return b, outs, b.Err()
		},
		Init:  map[string]*tensor.Tensor{"acc": tensor.Scalar(0)},
		Feeds: func(uint64) map[string]*tensor.Tensor { return map[string]*tensor.Tensor{"limit": limit} },
		OnStep: func(step uint64, vals []*tensor.Tensor) error {
			if want := float64(step) * float64(iters); vals[0].ScalarValue() != want {
				return fmt.Errorf("step %d: fetch %v, want %v", step, vals[0].ScalarValue(), want)
			}
			return nil
		},
		OnRebuild: func(workers []string, fromStep uint64) {
			fmt.Printf("driver: rolled back to step %d, rebuilt over %v\n", fromStep, workers)
		},
	}

	start := time.Now()
	final, err := distrib.RunJob(context.Background(), fleet, spec, distrib.JobOptions{
		Steps:          uint64(steps),
		TCP:            distrib.TCPOptions{CheckpointDir: ckDir, CheckpointEvery: ckEvery},
		MaxStepRetries: maxRetries,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "job: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	fmt.Printf("driver: job done, final acc %v (want %d) in %v (%.1f steps/s)\n",
		final[0].ScalarValue(), steps*iters, elapsed.Round(time.Millisecond),
		float64(steps)/elapsed.Seconds())
	return 0
}
