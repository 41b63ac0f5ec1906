// Command dcfgraph builds representative models and dumps their dataflow
// graphs: op histograms and Graphviz DOT, showing how high-level control
// flow compiles to the Switch/Merge/Enter/Exit/NextIteration primitives
// (§4.2) and what the gradient construction adds (§5.1).
//
//	dcfgraph -model loop          # simple counting loop
//	dcfgraph -model rnn -grad     # dynamic RNN with its gradient subgraph
//	dcfgraph -model cond -dot     # conditional, DOT on stdout
//	dcfgraph -model rnn -lint     # run the static verifier, exit 1 on findings
//	dcfgraph -model rnn -analyze  # static peak-memory bound + per-node table
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/dcf"
	"repro/internal/nn"
	"repro/internal/verify"
)

func buildModel(model string, withGrad bool) (*dcf.Graph, error) {
	g := dcf.NewGraph()
	switch model {
	case "loop":
		w := g.Variable("w", dcf.RandNormal(1, 0, 0.1, 4, 4))
		x := g.PlaceholderTyped("x", dcf.Float, 4, 4)
		outs := g.While(
			[]dcf.Tensor{g.Scalar(0), x},
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(8)) },
			func(v []dcf.Tensor) []dcf.Tensor {
				return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].MatMul(w)}
			},
			dcf.WhileOpts{},
		)
		loss := outs[1].Square().ReduceSum()
		if withGrad {
			g.MustGradients(loss, w)
		}
	case "cond":
		p := g.PlaceholderTyped("p", dcf.Bool, 1)
		x := g.PlaceholderTyped("x", dcf.Float, 8, 8)
		outs := g.Cond(p,
			func() []dcf.Tensor { return []dcf.Tensor{x.Square()} },
			func() []dcf.Tensor { return []dcf.Tensor{x.Tanh()} },
		)
		loss := outs[0].ReduceSum()
		if withGrad {
			g.MustGradients(loss, x)
		}
	case "rnn":
		cell := nn.NewLSTMCell(g, "lstm", 8, 16, 1)
		x := g.PlaceholderTyped("x", dcf.Float, 6, 4, 8) // [time, batch, in]
		h0 := g.Const(dcf.Zeros(4, 16))
		c0 := g.Const(dcf.Zeros(4, 16))
		r := nn.DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
		loss := r.Outputs.Square().ReduceSum()
		if withGrad {
			g.MustGradients(loss, cell.Wx, cell.Wh, cell.B)
		}
	default:
		return nil, fmt.Errorf("unknown model %q (loop|cond|rnn)", model)
	}
	return g, g.Err()
}

func main() {
	model := flag.String("model", "loop", "model to build (loop|cond|rnn)")
	withGrad := flag.Bool("grad", false, "add the gradient subgraph")
	dot := flag.Bool("dot", false, "print Graphviz DOT instead of stats")
	lint := flag.Bool("lint", false, "run the static graph verifier and exit 1 on findings")
	analyze := flag.Bool("analyze", false, "print the static peak-memory bound with a per-node residency table")
	flag.Parse()

	g, err := buildModel(*model, *withGrad)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *lint {
		ds := verify.Check(g.Builder().G, verify.Options{Complete: true})
		for _, d := range ds {
			fmt.Println(d)
		}
		if len(ds) > 0 {
			fmt.Fprintf(os.Stderr, "dcfgraph: %d finding(s) in model %q\n", len(ds), *model)
			os.Exit(1)
		}
		fmt.Printf("model %q (grad=%v): graph verifies clean\n", *model, *withGrad)
		return
	}
	if *analyze {
		est, ds := verify.EstimateMemory(g.Builder().G, verify.Options{})
		if est == nil {
			for _, d := range ds {
				fmt.Println(d)
			}
			fmt.Fprintf(os.Stderr, "dcfgraph: model %q does not verify; no estimate\n", *model)
			os.Exit(1)
		}
		printEstimate(*model, *withGrad, est)
		return
	}
	if *dot {
		fmt.Print(g.Builder().G.DOT())
		return
	}
	stats := g.Builder().G.Stats()
	var ops []string
	total := 0
	for op, n := range stats {
		ops = append(ops, op)
		total += n
	}
	sort.Slice(ops, func(i, j int) bool { return stats[ops[i]] > stats[ops[j]] })
	fmt.Printf("model %q (grad=%v): %d nodes\n", *model, *withGrad, total)
	for _, op := range ops {
		fmt.Printf("%6d  %s\n", stats[op], op)
	}
}

// printEstimate renders the memory analysis: the headline bound, the top-5
// contributing values at the peak node, and the per-node residency table.
func printEstimate(model string, withGrad bool, est *verify.MemEstimate) {
	finite := "finite"
	if !est.Finite() {
		finite = "symbolic"
	}
	fmt.Printf("model %q (grad=%v): %s bound, %s\n", model, withGrad, finite, est)
	if est.StepBytes > 0 {
		fmt.Printf("  step-resident (tensor arrays): %d B\n", est.StepBytes)
	}
	frame := est.PeakFrame
	if frame == "" {
		frame = "<root>"
	}
	fmt.Printf("  peak at node %q (%s, frame %s)\n", est.PeakNode, est.PeakOp, frame)
	fmt.Println("  top contributors:")
	for i, c := range est.Contributors {
		if i == 5 {
			fmt.Printf("    ... and %d more\n", len(est.Contributors)-5)
			break
		}
		line := fmt.Sprintf("%d B", c.Bytes)
		if c.PerRow > 0 {
			line = fmt.Sprintf("%d B/row", c.PerRow)
		}
		fmt.Printf("    %10s  %s (%s, window %d)\n", line, c.Edge, c.Op, c.Window)
	}
	fmt.Println("  per-node residency (topological order):")
	fmt.Printf("    %12s %8s %6s  %s\n", "bytes", "B/row", "win", "node (op, frame)")
	for _, nm := range est.Nodes {
		frame := nm.Frame
		if frame == "" {
			frame = "<root>"
		}
		fmt.Printf("    %12d %8d %6d  %s (%s, %s)\n",
			nm.FixedBytes, nm.PerRow, nm.Window, nm.Node, nm.Op, frame)
	}
}
