package bench

import (
	"fmt"
	"io"

	"repro/dcf"
	"repro/internal/cluster"
	"repro/internal/distrib"
	"repro/internal/graph"
)

// Fig11Row is one point of Figure 11: the iteration rate of a distributed
// while-loop with a trivial per-machine body, with and without a barrier
// (AllReduce) at the end of each iteration.
type Fig11Row struct {
	Machines     int
	NoBarrierIPS float64 // iterations per second
	BarrierIPS   float64
}

// Fig11Config parameterizes the microbenchmark.
type Fig11Config struct {
	Machines   []int
	Iterations int // loop trip count per measured run
	MatrixDim  int // per-machine matmul size (paper: "very small")
}

// DefaultFig11 mirrors the paper's sweep (1–64 machines). Each machine is a
// worker daemon on loopback TCP (cluster.Worker, what cmd/dcfworker runs),
// so a hop costs a real socket write, frame decode and executor wake-up;
// no fabric latency is injected on top.
func DefaultFig11(quick bool) Fig11Config {
	cfg := Fig11Config{
		Machines:   []int{1, 2, 4, 8, 16, 32, 64},
		Iterations: 400,
		MatrixDim:  4,
	}
	if quick {
		cfg.Machines = []int{1, 4, 8}
		cfg.Iterations = 150
	}
	return cfg
}

// buildFig11Graph builds the single while-loop of §6.1, its body
// partitioned across `machines` devices. Each device holds a tiny matrix
// state updated per iteration; with barrier=true, every device's update
// additionally depends on an AllReduce (sum on the driver, redistributed),
// the Figure 10(b) dependence pattern; without it, devices are independent
// per Figure 10(a).
func buildFig11Graph(machines, iterations, dim int, barrier bool) (*dcf.Graph, []dcf.Tensor) {
	g := dcf.NewGraph()
	dev := func(m int) string { return fmt.Sprintf("m%d", m) }

	inits := []dcf.Tensor{}
	g.WithDevice(dev(0), func() {
		inits = append(inits, g.Scalar(0))
	})
	for m := 0; m < machines; m++ {
		g.WithDevice(dev(m), func() {
			inits = append(inits, g.Const(dcf.Eye(dim)))
		})
	}
	var outs []dcf.Tensor
	g.WithDevice(dev(0), func() {
		outs = g.While(
			inits,
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(float64(iterations))) },
			func(v []dcf.Tensor) []dcf.Tensor {
				next := []dcf.Tensor{v[0].Add(g.Scalar(1))}
				states := make([]dcf.Tensor, machines)
				for m := 0; m < machines; m++ {
					m := m
					g.WithDevice(dev(m), func() {
						states[m] = v[1+m].MatMul(v[1+m]).Minimum(g.Scalar(2))
					})
				}
				if barrier {
					// AllReduce: sum on the driver, then every
					// machine's next state depends on the sum.
					var sum dcf.Tensor
					g.WithDevice(dev(0), func() {
						sum = dcf.AddN(states...).Mul(g.Scalar(0))
					})
					for m := 0; m < machines; m++ {
						m := m
						g.WithDevice(dev(m), func() {
							states[m] = states[m].Add(sum)
						})
					}
				}
				return append(next, states...)
			},
			dcf.WhileOpts{Name: "dist_loop"},
		)
	})
	// Fetch every loop variable's exit so no machine's state chain is
	// pruned from the step.
	return g, outs
}

// runFig11Case measures one (machines, barrier) cell: one loopback worker
// daemon per machine, the loop registered across them, a warm-up step and
// one timed step.
func runFig11Case(machines int, cfg Fig11Config, barrier bool) (float64, error) {
	g, outs := buildFig11Graph(machines, cfg.Iterations, cfg.MatrixDim, barrier)
	if err := g.Err(); err != nil {
		return 0, err
	}
	fetches := make([]graph.Output, len(outs))
	for i, o := range outs {
		fetches[i] = o.Output()
	}
	addrs := make([]string, machines)
	for m := range addrs {
		// Named as distrib.DeviceWorker maps buildFig11Graph's devices.
		d, err := cluster.NewWorker(fmt.Sprintf("m%d", m), "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer d.Close()
		addrs[m] = d.Addr()
	}
	fleet, err := distrib.Dial(addrs...)
	if err != nil {
		return 0, err
	}
	defer fleet.Close()
	c, err := fleet.NewCluster(g.Builder(), fetches, nil, distrib.TCPOptions{DefaultDevice: "m0"})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if _, err := c.Run(nil); err != nil { // warm-up: dials the data plane
		return 0, err
	}
	d, err := timeIt(func() error {
		_, err := c.Run(nil)
		return err
	})
	if err != nil {
		return 0, err
	}
	return float64(cfg.Iterations) / d.Seconds(), nil
}

// Fig11 runs the sweep and returns the series of Figure 11.
func Fig11(cfg Fig11Config, w io.Writer) ([]Fig11Row, error) {
	fprintf(w, "Figure 11: distributed while-loop iteration rate, one loopback worker daemon per machine\n")
	fprintf(w, "%10s %18s %18s\n", "machines", "no-barrier it/s", "barrier it/s")
	var rows []Fig11Row
	for _, m := range cfg.Machines {
		nb, err := runFig11Case(m, cfg, false)
		if err != nil {
			return nil, fmt.Errorf("fig11 machines=%d no-barrier: %w", m, err)
		}
		bar, err := runFig11Case(m, cfg, true)
		if err != nil {
			return nil, fmt.Errorf("fig11 machines=%d barrier: %w", m, err)
		}
		rows = append(rows, Fig11Row{Machines: m, NoBarrierIPS: nb, BarrierIPS: bar})
		fprintf(w, "%10d %18.0f %18.0f\n", m, nb, bar)
	}
	return rows, nil
}
