package exec

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// poolLive is the buffer pool's live-bytes gauge, as /metrics exports it.
var poolLive = metrics.Default().Gauge("tensor_pool_live_bytes")

// The tests below hold the ownership rule to its arithmetic: each builds a
// graph in which a pool buffer has more than one reference, runs it at
// windows 1 and 32, with the kernels on the dispatcher and estimated dear
// (handed off), and requires the fetched values and the
// exact change in the pool's live-bytes gauge the rule predicts — the bytes the
// case names as held (a fetch, a variable) and nothing else. A buffer that is
// never released reads as growth; one released early reads as a wrong value
// (the very pattern, under -race, where Recycle poisons the payload).

// ruleBytes is the payload every case uses: 4 x 8 floats.
const ruleBytes = 4 * scratchCols * 8

// TestPeek is a Fresh op only these tests register: it reports its input
// tensor to the func in its "peek" attr, keeps nothing, and returns a scalar
// of its own from the pool.
func init() {
	ops.Register(&ops.OpDef{Name: "TestPeek", NumOutputs: 1, Inputs: ops.Exactly(1), Fresh: true, Kernel: func(ctx *ops.KernelContext) ([]ops.Value, error) {
		ctx.Attrs["peek"].(func(*tensor.Tensor))(ctx.In[0].T)
		return ctx.One(ops.TensorVal(tensor.NewFromPool(tensor.Float))), nil
	}})
}

// loopOf hand-builds `for k := 0; k < n; k++ { vars = body(vars, consts) }`
// in a frame of its own (nestLoop, entered from the root frame) and returns
// the exits of vars.
func loopOf(b *tb, name string, n int, vars, consts []graph.Output,
	body func(vars, consts []graph.Output) []graph.Output) []graph.Output {
	return nestLoop(b, name, b.scalar(float64(n)), b.scalar(0), b.scalar(1), vars,
		func(vars []graph.Output, in func(graph.Output) graph.Output) []graph.Output {
			cs := make([]graph.Output, len(consts))
			for i, c := range consts {
				cs[i] = in(c)
			}
			return body(vars, cs)
		})
}

// nestLoop hand-builds `for k := 0; k < lim; k++ { vars = body(vars, in) }`
// in frame name, whose Enters declare b.window. lim, zero and one are values
// of the enclosing frame; in brings any other enclosing value into the frame
// as a loop constant. It returns the exits of vars.
func nestLoop(b *tb, name string, lim, zero, one graph.Output, vars []graph.Output,
	body func(vars []graph.Output, in func(graph.Output) graph.Output) []graph.Output) []graph.Output {
	frame := map[string]any{"frame_name": name, "parallel_iterations": b.window}
	in := func(v graph.Output) graph.Output {
		return b.node("Enter", map[string]any{"frame_name": name, "parallel_iterations": b.window, "is_constant": true}, v).Out(0)
	}
	all := append([]graph.Output{zero}, vars...)
	merges := make([]*graph.Node, len(all))
	for i, v := range all {
		e := b.node("Enter", frame, v)
		merges[i] = b.node("Merge", nil, e.Out(0), e.Out(0))
	}
	cond := b.node("LoopCond", nil, b.node("Less", nil, merges[0].Out(0), in(lim)).Out(0))
	inBody := make([]graph.Output, len(all))
	exits := make([]graph.Output, len(vars))
	for i, m := range merges {
		sw := b.node("Switch", nil, m.Out(0), cond.Out(0))
		inBody[i] = sw.Out(1)
		if i > 0 {
			exits[i-1] = b.node("Exit", nil, sw.Out(0)).Out(0)
		}
	}
	next := append([]graph.Output{b.node("Add", nil, inBody[0], in(one)).Out(0)}, body(inBody[1:], in)...)
	for i, m := range merges {
		m.ReplaceInput(1, b.node("NextIteration", nil, next[i]).Out(0))
	}
	return exits
}

// fresh returns the ruleBytes tensor base + k, k = 0.., as the output of a
// Fresh kernel: a pool buffer the executor owns.
func fresh(b *tb, base float64) graph.Output {
	return b.node("Add", nil, b.constT(filled(base, 4, scratchCols)), b.scalar(0)).Out(0)
}

// sumOf fetches v as one scalar, so v itself stays in the ownership system.
func sumOf(b *tb, v graph.Output) graph.Output { return b.node("Sum", nil, v).Out(0) }

// ruleCase is one graph, what its fetches must be, and the pool bytes its
// step leaves with holders, the fetched values included.
type ruleCase struct {
	build func(b *tb) []graph.Output
	check func(out []ops.Value) error
	held  int64
	bind  Binding
	// forks: with every kernel estimated dear, some must be handed off.
	forks bool
}

func runRule(t *testing.T, c ruleCase) {
	t.Helper()
	for _, window := range []int{1, 32} {
		for _, dear := range []bool{false, true} {
			name := fmt.Sprintf("window %d, dear %v", window, dear)
			b := newTB(t)
			b.window = window
			opts := PlanOptions{Fetches: c.build(b)}
			plan := b.plan(opts)
			if dear {
				plan = newDear(b, opts)
			}
			handed, start := metricHandoff.Value(), poolLive.Value()
			out, _, err := plan.Run(c.bind)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if grew := poolLive.Value() - start; grew != c.held {
				t.Errorf("%s: the pool's live bytes moved by %d, the rule predicts %d", name, grew, c.held)
			}
			if err := c.check(out); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if dear && c.forks && metricHandoff.Value() == handed {
				t.Errorf("%s: no kernel was handed off", name)
			}
		}
	}
}

// wantElems requires element k of v to be at(k).
func wantElems(v ops.Value, what string, at func(k int) float64) error {
	for k, got := range v.T.F {
		if want := at(k); got != want {
			return fmt.Errorf("%s[%d] = %v, want %v", what, k, got, want)
		}
	}
	return nil
}

func TestRuleTwoFreshConsumers(t *testing.T) {
	runRule(t, ruleCase{
		build: func(b *tb) []graph.Output {
			x := fresh(b, 1)
			return []graph.Output{b.node("Sub", nil, b.node("Square", nil, x).Out(0), b.node("Abs", nil, x).Out(0)).Out(0)}
		},
		check: func(out []ops.Value) error {
			return wantElems(out[0], "x*x-|x|", func(k int) float64 { x := 1 + float64(k); return x*x - x })
		},
		held:  ruleBytes, // the fetched difference
		forks: true,
	})
}

// A holder's reference is for good: the variable an Assign sets keeps the
// very buffer, and still reads it right after 100 further steps have churned
// the pool's free lists for that size.
func TestRuleFreshConsumerAndHolder(t *testing.T) {
	sess := ops.NewResources()
	read := func() *tensor.Tensor {
		b := newTB(t)
		rd := b.node("VarRead", map[string]any{"var": "v"})
		out, _, err := b.plan(PlanOptions{Fetches: []graph.Output{rd.Out(0)}}).Run(Binding{SessionRes: sess})
		if err != nil {
			t.Fatal(err)
		}
		return out[0].T
	}
	var first *tensor.Tensor
	step := 0
	runRule(t, ruleCase{
		build: func(b *tb) []graph.Output {
			x := fresh(b, 1)
			b.node("Assign", map[string]any{"var": "v"}, x)
			return []graph.Output{sumOf(b, b.node("Square", nil, x).Out(0))}
		},
		check: func(out []ops.Value) error {
			if step++; step == 1 {
				first = read()
			}
			return nil
		},
		held: ruleBytes + 8, // the variable's value, the fetched sum
		bind: Binding{SessionRes: sess},
	})
	// 8 steps so far, each leaving its own x with the variable; 100 more.
	b := newTB(t)
	x := fresh(b, 7)
	b.node("Assign", map[string]any{"var": "v"}, x)
	plan := b.plan(PlanOptions{Fetches: []graph.Output{sumOf(b, b.node("Square", nil, x).Out(0))}})
	for i := 0; i < 100; i++ {
		if _, _, err := plan.Run(Binding{SessionRes: sess}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wantElems(ops.TensorVal(first), "the first step's variable", func(k int) float64 { return 1 + float64(k) }); err != nil {
		t.Fatal(err)
	}
	if err := wantElems(ops.TensorVal(read()), "the variable", func(k int) float64 { return 7 + float64(k) }); err != nil {
		t.Fatal(err)
	}
}

// A value with two consumers in every iteration — the NextIteration that
// carries it round and an Add that reads it — stays counted through
// Switch -> NextIteration -> Merge for 200 iterations (deferred past the
// window at 1) and is recycled once, after the loop.
func TestRuleCountedValueRoundALoop(t *testing.T) {
	const iters = 200
	runRule(t, ruleCase{
		build: func(b *tb) []graph.Output {
			exits := loopOf(b, "round", iters, []graph.Output{fresh(b, 1), fresh(b, 0)}, nil,
				func(vars, _ []graph.Output) []graph.Output {
					v, acc := vars[0], vars[1]
					return []graph.Output{v, b.node("Add", nil, acc, v).Out(0)}
				})
			return []graph.Output{sumOf(b, exits[0]), exits[1]}
		},
		check: func(out []ops.Value) error {
			const n = 4 * scratchCols
			if got, want := out[0].T.ScalarValue(), float64(n*(n+1)/2); got != want {
				return fmt.Errorf("sum of v after the loop = %v, want %v", got, want)
			}
			return wantElems(out[1], "acc", func(k int) float64 { return float64(k) + iters*(1+float64(k)) })
		},
		held: 8 + ruleBytes, // the fetched sum, the fetched accumulator
	})
}

// A routing node forwards the reference it is handed: an Identity whose two
// consumers are an Add and the NextIteration that carries its value round
// runs where its token lands, as does that NextIteration, and neither gives
// the reference up. The counted value is recycled once, after the loop.
func TestRuleCountedValueRoutedThroughIdentity(t *testing.T) {
	const iters = 200
	runRule(t, ruleCase{
		build: func(b *tb) []graph.Output {
			exits := loopOf(b, "routed", iters, []graph.Output{fresh(b, 1), fresh(b, 0)}, nil,
				func(vars, _ []graph.Output) []graph.Output {
					v := b.node("Identity", nil, vars[0]).Out(0)
					return []graph.Output{v, b.node("Add", nil, vars[1], v).Out(0)}
				})
			return []graph.Output{sumOf(b, exits[0]), exits[1]}
		},
		check: func(out []ops.Value) error {
			const n = 4 * scratchCols
			if got, want := out[0].T.ScalarValue(), float64(n*(n+1)/2); got != want {
				return fmt.Errorf("sum of v after the loop = %v, want %v", got, want)
			}
			return wantElems(out[1], "acc", func(k int) float64 { return float64(k) + iters*(1+float64(k)) })
		},
		held: 8 + ruleBytes, // the fetched sum, the fetched accumulator
	})
}

// A forward loop pushes a value that its next iteration also reads; a second
// loop pops them. The reference a push moves into the stack comes out of the
// matching pop, counted by the pop's consumers — one, or two.
func TestRuleThroughTheStack(t *testing.T) {
	const iters = 20
	for _, consumers := range []int{1, 2} {
		runRule(t, ruleCase{
			build: func(b *tb) []graph.Output {
				st := b.node("Stack", nil).Out(0)
				step := b.constT(filled(1, 4, scratchCols))
				fwd := loopOf(b, "fwd", iters, []graph.Output{fresh(b, 0), b.scalar(0)}, []graph.Output{st, step},
					func(vars, consts []graph.Output) []graph.Output {
						y := b.node("Add", nil, vars[0], consts[1]).Out(0)
						push := b.node("StackPush", nil, consts[0], y, vars[1])
						return []graph.Output{y, push.Out(1)}
					})
				accs := []graph.Output{fresh(b, 0), fwd[1]}
				if consumers == 2 {
					accs = append(accs, fresh(b, 0))
				}
				bwd := loopOf(b, "bwd", iters, accs, []graph.Output{st},
					func(vars, consts []graph.Output) []graph.Output {
						pop := b.node("StackPop", nil, consts[0], vars[1])
						next := []graph.Output{b.node("Add", nil, vars[0], pop.Out(0)).Out(0), pop.Out(1)}
						if consumers == 2 {
							next = append(next, b.node("Sub", nil, vars[2], pop.Out(0)).Out(0))
						}
						return next
					})
				fetches := []graph.Output{sumOf(b, fwd[0]), bwd[0]}
				if consumers == 2 {
					fetches = append(fetches, bwd[2])
				}
				return fetches
			},
			check: func(out []ops.Value) error {
				// y_j = x0 + j*step for j = 1..iters, x0[k] = k, step[k] = 1+k.
				popped := func(k int) float64 {
					return float64(iters*k) + float64(1+k)*iters*(iters+1)/2
				}
				if err := wantElems(out[1], "sum of the popped values", func(k int) float64 { return float64(k) + popped(k) }); err != nil {
					return err
				}
				if consumers == 2 {
					return wantElems(out[2], "minus the popped values", func(k int) float64 { return float64(k) - popped(k) })
				}
				return nil
			},
			held: 8 + int64(consumers)*ruleBytes, // the fetched sum of the last y, the fetched accumulators
		})
	}
}

// A Merge fires on its first live input; the late one gives its reference up
// on arrival, whether it was the only one (a) or one of two (b, which Square
// also reads).
func TestRuleMergeDropsLateInput(t *testing.T) {
	runRule(t, ruleCase{
		build: func(b *tb) []graph.Output {
			a, c := fresh(b, 1), fresh(b, 1)
			m := b.node("Merge", nil, a, c)
			return []graph.Output{m.Out(0), sumOf(b, b.node("Square", nil, c).Out(0))}
		},
		check: func(out []ops.Value) error {
			return wantElems(out[0], "merged", func(k int) float64 { return 1 + float64(k) })
		},
		held:  ruleBytes + 8, // the fetched winner, the fetched sum
		forks: true,
	})
}

// A consumer on an untaken branch is dead-skipped and releases what it was
// handed like one that ran.
func TestRuleDeadSkippedConsumer(t *testing.T) {
	runRule(t, ruleCase{
		build: func(b *tb) []graph.Output {
			x := fresh(b, 1)
			sw := b.node("Switch", nil, b.scalar(1), b.constT(tensor.ScalarBool(false)))
			b.node("Mul", nil, x, sw.Out(1)) // never runs
			return []graph.Output{sumOf(b, b.node("Square", nil, x).Out(0))}
		},
		check: func(out []ops.Value) error {
			const n = 4 * scratchCols
			if got, want := out[0].T.ScalarValue(), float64(n*(n+1)*(2*n+1)/6); got != want {
				return fmt.Errorf("sum of squares = %v, want %v", got, want)
			}
			return nil
		},
		held: 8,
	})
}

// The consumer that is handed the last reference is granted the buffer as if
// it had been the only one: Neg, which runs once TestPeek is done with x,
// writes its result over x.
func TestRuleLastReferenceIsGranted(t *testing.T) {
	var seen *tensor.Tensor
	runRule(t, ruleCase{
		build: func(b *tb) []graph.Output {
			x := fresh(b, 0)
			peek := b.node("TestPeek", map[string]any{"peek": func(x *tensor.Tensor) { seen = x }}, x)
			neg := b.node("Neg", nil, x)
			neg.AddControlInput(peek)
			return []graph.Output{neg.Out(0)}
		},
		check: func(out []ops.Value) error {
			if out[0].T != seen {
				return fmt.Errorf("the second consumer's output %p is not its input %p: it was not granted the last reference", out[0].T, seen)
			}
			return wantElems(out[0], "-x", func(k int) float64 { return -float64(k) })
		},
		held: ruleBytes, // x itself, fetched as -x
	})
}
