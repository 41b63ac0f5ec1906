package dcf_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/dcf"
	"repro/internal/metrics"
)

// nestedControlFlow builds an outer While whose body holds a Cond and an
// inner While, over a matrix state large enough (128x128: a MatMul or a Tanh
// of it costs over 100 us, three hand-offs' worth) that where the graph
// forks — the two products of a MatMul's gradient, the backward loops beside
// the sums — its dear kernels leave the dispatcher for goroutines of their
// own, while the counters, the predicates and the chains stay on it:
//
//	i, m, s = 0, x, 0
//	while i < 5:
//	    m = cond(i mod 2 == 0, tanh(m·w), m + 0.5)
//	    j, m = 0, m
//	    while j < 3: j, m = j+1, m*0.99 + 0.25
//	    i, s = i+1, s + sum(m)
//
// The gradient of s with respect to w adds the stacks and the backward loops.
const nestedDim = 128

func nestedControlFlow(t *testing.T, window int) (*dcf.Graph, []dcf.Tensor) {
	t.Helper()
	g := dcf.NewGraph()
	x := g.Placeholder("x")
	w := g.Variable("w", dcf.RandNormal(7, 0, 0.05, nestedDim, nestedDim))
	opts := func(name string) dcf.WhileOpts {
		return dcf.WhileOpts{Name: name, ParallelIterations: window}
	}
	outs := g.While(
		[]dcf.Tensor{g.Scalar(0), x, g.Scalar(0)},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(5)) },
		func(v []dcf.Tensor) []dcf.Tensor {
			i, m, s := v[0], v[1], v[2]
			m = g.Cond(i.Mod(g.Scalar(2)).Equal(g.Scalar(0)),
				func() []dcf.Tensor { return []dcf.Tensor{m.MatMul(w).Tanh()} },
				func() []dcf.Tensor { return []dcf.Tensor{m.Add(g.Scalar(0.5))} })[0]
			inner := g.While(
				[]dcf.Tensor{g.Scalar(0), m},
				func(u []dcf.Tensor) dcf.Tensor { return u[0].Less(g.Scalar(3)) },
				func(u []dcf.Tensor) []dcf.Tensor {
					return []dcf.Tensor{u[0].Add(g.Scalar(1)), u[1].Mul(g.Scalar(0.99)).Add(g.Scalar(0.25))}
				},
				opts("inner"))
			return []dcf.Tensor{i.Add(g.Scalar(1)), inner[1], s.Add(inner[1].ReduceSum())}
		},
		opts("outer"))
	grads, err := g.Gradients(outs[2], []dcf.Tensor{w}, dcf.GradOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	return g, []dcf.Tensor{outs[1], outs[2], grads[0]}
}

// TestNestedControlFlowBitIdenticalAcrossWindowsAndWorkers runs the same
// nested cond/while graph (forward and gradient) at every combination of
// loop window and GOMAXPROCS (one P, or the process's own) and requires
// bit-identical results: neither how many iterations are in flight nor which
// goroutine's scratch a node's outputs pass through may change a value. CI
// runs it under -race at GOMAXPROCS 1, 2 and 4.
func TestNestedControlFlowBitIdenticalAcrossWindowsAndWorkers(t *testing.T) {
	x := dcf.RandNormal(3, 0, 1, nestedDim, nestedDim)
	var ref []*dcf.Value
	var refName string
	handed := metrics.Default().Counter("exec_dispatch_handoff_total")
	handedBefore := handed.Value()
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, window := range []int{1, 4, 32} {
		for _, p := range []int{1, procs} {
			runtime.GOMAXPROCS(p)
			name := fmt.Sprintf("parallel_iterations=%d GOMAXPROCS=%d", window, p)
			g, fetches := nestedControlFlow(t, window)
			sess := dcf.NewSession(g)
			if err := sess.InitVariables(); err != nil {
				t.Fatal(err)
			}
			var out []*dcf.Value
			// The first run times every kernel on the dispatcher; the later
			// ones dispatch by those times and draw recycled buffers.
			for rep := 0; rep < 3; rep++ {
				var err error
				if out, err = sess.Run(dcf.Feeds{"x": x}, fetches); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			sess.Close()
			if ref == nil {
				ref, refName = out, name
				continue
			}
			for k := range out {
				if !dcf.ValuesEqual(out[k], ref[k]) {
					t.Fatalf("fetch %d differs between %s and %s", k, name, refName)
				}
			}
		}
	}
	if handed.Value() == handedBefore {
		t.Fatal("exec_dispatch_handoff_total did not move: no run of the matrix handed a kernel off, so it compared the dispatcher with itself")
	}
}
