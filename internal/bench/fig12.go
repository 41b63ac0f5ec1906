package bench

import (
	"fmt"
	"io"
	"time"

	"repro/dcf"
)

// Fig12Row is one point of Figure 12: the effect of the parallel-iterations
// knob on a loop whose body is pipelined across 8 simulated GPUs (Figure
// 10(c): each GPU depends on its own previous-iteration state and on the
// previous GPU's output).
type Fig12Row struct {
	ParallelIterations int
	IPS                float64
	SpeedupVsSerial    float64
}

// Fig12Config parameterizes the microbenchmark.
type Fig12Config struct {
	GPUs       int
	Parallel   []int
	Iterations int
	MatrixDim  int           // kept tiny; the cost below models the 1024x1024 kernel
	MatMulCost time.Duration // simulated per-matmul GPU time
}

// DefaultFig12 mirrors the paper's sweep (1–32 parallel iterations, 8
// GPUs). The matmul itself stays small; each one charges MatMulCost on its
// GPU's compute stream, standing in for the paper's 1024x1024 kernels (so
// cross-device overlap is visible regardless of host core count).
func DefaultFig12(quick bool) Fig12Config {
	cfg := Fig12Config{
		GPUs:       8,
		Parallel:   []int{1, 2, 4, 8, 16, 32},
		Iterations: 64,
		MatrixDim:  16,
		MatMulCost: 800 * time.Microsecond,
	}
	if quick {
		cfg.Parallel = []int{1, 8}
		cfg.Iterations = 32
	}
	return cfg
}

// buildFig12Graph: one while-loop of window parallel; GPU d computes a
// matmul of its state with the previous GPU's output; the loop condition
// depends only on the counter, so iterations can be enqueued ahead (§6.1).
func buildFig12Graph(gpus, iterations, dim, parallel int) (*dcf.Graph, []dcf.Tensor) {
	g := dcf.NewGraph()
	dev := func(d int) string { return fmt.Sprintf("gpu:%d", d) }
	inits := []dcf.Tensor{g.Scalar(0)}
	for d := 0; d < gpus; d++ {
		g.WithDevice(dev(d), func() {
			// Near-identity states keep values bounded across
			// iterations without extra per-iteration ops.
			init := dcf.Eye(dim)
			inits = append(inits, g.Const(init))
		})
	}
	outs := g.While(
		inits,
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(float64(iterations))) },
		func(v []dcf.Tensor) []dcf.Tensor {
			next := []dcf.Tensor{v[0].Add(g.Scalar(1))}
			prev := v[1]
			for d := 0; d < gpus; d++ {
				d := d
				var out dcf.Tensor
				g.WithDevice(dev(d), func() {
					out = v[1+d].MatMul(prev)
				})
				prev = out
				next = append(next, out)
			}
			return next
		},
		dcf.WhileOpts{Name: "pipeline", ParallelIterations: parallel},
	)
	// Fetch every GPU's state exit so no chain is pruned from the step.
	return g, outs[1:]
}

// Fig12 runs the parallel-iterations sweep on simulated GPUs within one
// local executor (device runners serialize kernels per GPU, as a GPU
// compute stream does). A window of 1 is the out-of-graph-equivalent
// serial execution the paper compares against in §6.1.
func Fig12(cfg Fig12Config, w io.Writer) ([]Fig12Row, error) {
	fprintf(w, "Figure 12: parallel-iterations knob, %d simulated GPUs, %dx%d matmul per layer\n",
		cfg.GPUs, cfg.MatrixDim, cfg.MatrixDim)
	fprintf(w, "%10s %12s %10s\n", "parallel", "iters/s", "speedup")
	var rows []Fig12Row
	var serial float64
	for _, p := range cfg.Parallel {
		g, fetches := buildFig12Graph(cfg.GPUs, cfg.Iterations, cfg.MatrixDim, p)
		if err := g.Err(); err != nil {
			return nil, err
		}
		var devs []dcf.DeviceConfig
		for d := 0; d < cfg.GPUs; d++ {
			devs = append(devs, dcf.DeviceConfig{
				Name: fmt.Sprintf("gpu:%d", d),
				KernelCost: func(op string) time.Duration {
					if op == "MatMul" {
						return cfg.MatMulCost
					}
					return 0
				},
			})
		}
		sess := dcf.NewSessionOpts(g, dcf.SessionOptions{Devices: devs})
		if _, err := sess.Run(nil, fetches); err != nil { // warm-up
			sess.Close()
			return nil, fmt.Errorf("fig12 p=%d: %w", p, err)
		}
		d, err := timeIt(func() error {
			_, err := sess.Run(nil, fetches)
			return err
		})
		sess.Close()
		if err != nil {
			return nil, fmt.Errorf("fig12 p=%d: %w", p, err)
		}
		ips := float64(cfg.Iterations) / d.Seconds()
		if p == cfg.Parallel[0] {
			serial = ips
		}
		row := Fig12Row{ParallelIterations: p, IPS: ips, SpeedupVsSerial: ips / serial}
		rows = append(rows, row)
		fprintf(w, "%10d %12.1f %9.2fx\n", p, ips, row.SpeedupVsSerial)
	}
	return rows, nil
}
