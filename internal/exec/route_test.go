package exec

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The tests here pin routing: Enter, Exit, NextIteration and the pass-throughs
// with one data input and no control inputs run where their token lands,
// inside the execution that produced it. Each graph puts routing nodes where
// the frame rules are easiest to get wrong — chains across frames, constants,
// fetched exits, a loop that never starts — and must give the same values and
// the same node executions at windows 1, 4 and 32, traced and not.

// routeWindows are the windows every case runs at.
var routeWindows = [3]int{1, 4, 32}

// routeCase is one graph, the scalars its fetches must be, and the node
// executions a step makes at each of routeWindows: in all (nodes) and of the
// ops that route when their node has one data input and no control inputs
// (routed) — the counts the executor made before it routed anything. queued
// of the routed executions keep the queue at every window: those in a frame
// with nothing outstanding yet (an inner loop's constants, entered while its
// frame is new).
type routeCase struct {
	name          string
	build         func(b *tb) []graph.Output
	want          []float64
	nodes, routed [3]int
	queued        int
}

// routingOps are the ops whose nodes route (none here has a device runner).
var routingOps = map[string]bool{"Enter": true, "Exit": true, "NextIteration": true, "Identity": true, "LoopCond": true, "StopGradient": true}

func TestRoutingNodes(t *testing.T) {
	const n = 6
	id := func(b *tb, v graph.Output) graph.Output { return b.node("Identity", nil, v).Out(0) }
	counter := func(b *tb, name string, vars []graph.Output, body func(vars []graph.Output, in func(graph.Output) graph.Output) []graph.Output) []graph.Output {
		return nestLoop(b, name, b.scalar(n), b.scalar(0), b.scalar(1), vars, body)
	}
	cases := []routeCase{
		{
			// acc += 4, by an inner loop, n times: the inner Exit feeds the
			// outer NextIteration, one chain through two frames. The inner
			// counter starts from acc-acc, so that, like every other inner
			// loop variable, it is dead in the outer iteration that exits.
			name: "inner exit to outer next iteration",
			build: func(b *tb) []graph.Output {
				return counter(b, "outer", []graph.Output{b.scalar(0)}, func(vars []graph.Output, in func(graph.Output) graph.Output) []graph.Output {
					one, zero := in(b.scalar(1)), b.node("Sub", nil, vars[0], vars[0]).Out(0)
					return nestLoop(b, "inner", in(b.scalar(4)), zero, one, vars,
						func(vars []graph.Output, in func(graph.Output) graph.Output) []graph.Output {
							return []graph.Output{b.node("Add", nil, vars[0], in(one)).Out(0)}
						})
				})
			},
			want:  []float64{4 * n},
			nodes: same(453), routed: same(188), queued: 2,
		},
		{
			name: "identity chain to next iteration",
			build: func(b *tb) []graph.Output {
				return counter(b, "ids", []graph.Output{b.scalar(0.5)}, func(vars []graph.Output, in func(graph.Output) graph.Output) []graph.Output {
					return []graph.Output{id(b, id(b, b.node("Add", nil, vars[0], in(b.scalar(1))).Out(0)))}
				})
			},
			want:  []float64{0.5 + n},
			nodes: same(101), routed: same(47),
		},
		{
			name: "constant enter read by an identity",
			build: func(b *tb) []graph.Output {
				return counter(b, "consts", []graph.Output{b.scalar(0)}, func(vars []graph.Output, in func(graph.Output) graph.Output) []graph.Output {
					return []graph.Output{b.node("Add", nil, vars[0], id(b, in(b.scalar(2)))).Out(0)}
				})
			},
			want:  []float64{2 * n},
			nodes: same(94), routed: same(40), queued: 1,
		},
		{
			// The exit is fetched and feeds a root Merge whose other input
			// is dead.
			name: "exit fetched and merged",
			build: func(b *tb) []graph.Output {
				exit := counter(b, "fetched", []graph.Output{b.scalar(0)}, func(vars []graph.Output, in func(graph.Output) graph.Output) []graph.Output {
					return []graph.Output{b.node("Add", nil, vars[0], in(b.scalar(3))).Out(0)}
				})[0]
				dead := b.node("Switch", nil, b.scalar(-1), b.constT(tensor.ScalarBool(false))).Out(1)
				return []graph.Output{exit, b.node("Merge", nil, dead, exit).Out(0)}
			},
			want:  []float64{3 * n, 3 * n},
			nodes: same(91), routed: same(33),
		},
	}
	for _, taken := range []bool{false, true} {
		// buildLoopInBranch's loop runs only on the taken branch: untaken,
		// its Enters forward dead tokens into a frame that never starts.
		c := routeCase{
			name:  fmt.Sprintf("loop in a branch, taken %v", taken),
			want:  []float64{-3},
			nodes: same(11), routed: same(4),
		}
		if taken {
			c.want, c.nodes, c.routed = []float64{41}, same(84), same(34)
		}
		c.build = func(b *tb) []graph.Output {
			return []graph.Output{buildLoopInBranch(b, b.constT(tensor.ScalarBool(taken)), b.window).Out(0)}
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		for w, window := range routeWindows {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s, window %d, traced %v", c.name, window, traced)
				b := newTB(t)
				b.window = window
				var bind Binding
				if traced {
					bind.Trace = trace.New()
				}
				out, nodes, err := b.plan(PlanOptions{Fetches: c.build(b)}).Run(bind)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := wantScalars(out, c.want); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if nodes != c.nodes[w] {
					t.Errorf("%s: %d node executions, want %d", name, nodes, c.nodes[w])
				}
				if !traced {
					continue
				}
				// A routed execution is traced with no queue wait; on a coarse
				// clock a queued one may read none too.
				spans, routed, unqueued := 0, 0, 0
				for _, e := range bind.Trace.Events() {
					spans++
					if routingOps[e.Op] {
						routed++
						if e.Queue == 0 {
							unqueued++
						}
					}
				}
				if spans != c.nodes[w] || routed != c.routed[w] {
					t.Errorf("%s: %d spans, %d of routing ops; want one per execution: %d, %d", name, spans, routed, c.nodes[w], c.routed[w])
				}
				if unqueued < c.routed[w]-c.queued {
					t.Errorf("%s: %d spans of routing ops with no queue wait, want at least %d: they were queued", name, unqueued, c.routed[w]-c.queued)
				}
			}
		}
	}
}

func same(n int) [3]int { return [3]int{n, n, n} }

func wantScalars(out []ops.Value, want []float64) error {
	for i, w := range want {
		if got := out[i].T.ScalarValue(); got != w {
			return fmt.Errorf("fetch %d = %v, want %v", i, got, w)
		}
	}
	return nil
}
