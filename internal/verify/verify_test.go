package verify_test

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// gb builds deliberately ill-formed graphs; graph.AddNode validates almost
// nothing, which is exactly what these fixtures need.
type gb struct {
	t *testing.T
	g *graph.Graph
}

func newGB(t *testing.T) *gb { return &gb{t: t, g: graph.New()} }

func (b *gb) node(op, name string, outs int, attrs map[string]any, ins ...graph.Output) *graph.Node {
	b.t.Helper()
	n, err := b.g.AddNode(graph.NodeArgs{Op: op, Name: name, NumOutputs: outs, Attrs: attrs, Inputs: ins})
	if err != nil {
		b.t.Fatalf("AddNode(%s %s): %v", op, name, err)
	}
	return n
}

func (b *gb) constF(name string, vals []float64, shape ...int) *graph.Node {
	return b.node("Const", name, 1, map[string]any{"value": tensor.FromFloats(vals, shape...)})
}

func (b *gb) constI(name string, v int64) *graph.Node {
	return b.node("Const", name, 1, map[string]any{"value": tensor.ScalarInt(v)})
}

func (b *gb) constB(name string, v bool) *graph.Node {
	return b.node("Const", name, 1, map[string]any{"value": tensor.FromBools([]bool{v})})
}

func enterAttrs(frame string) map[string]any {
	return map[string]any{"frame_name": frame, "parallel_iterations": 0}
}

// illFormed is one fixture: build mutates the graph (and may adjust opts);
// the verifier must emit at least one diagnostic with wantCode, and when
// wantNode/wantFrame are set, that diagnostic must name them.
type illFormed struct {
	name      string
	wantCode  string
	wantNode  string
	wantFrame string
	wantPort  int // -2 = don't check
	build     func(b *gb, opts *verify.Options)
}

func illFixtures() []illFormed {
	return []illFormed{
		{
			name: "unknown op", wantCode: "unknown-op", wantNode: "mystery", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				b.node("FluxCapacitor", "mystery", 1, nil)
			},
		},
		{
			name: "output arity disagrees with registry", wantCode: "output-arity", wantNode: "add", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				b.node("Add", "add", 2, nil, c.Out(0), c.Out(0))
			},
		},
		{
			name: "switch with one input", wantCode: "input-arity", wantNode: "sw", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				b.node("Switch", "sw", 2, nil, c.Out(0))
			},
		},
		{
			name: "gather with one input", wantCode: "input-arity", wantNode: "g", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1, 2}, 2)
				b.node("Gather", "g", 1, nil, c.Out(0))
			},
		},
		{
			name: "concat of nothing", wantCode: "input-arity", wantNode: "cat", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				b.node("Concat", "cat", 1, map[string]any{"axis": 0})
			},
		},
		{
			name: "stack push without its token", wantCode: "input-arity", wantNode: "push", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				st := b.node("Stack", "st", 1, nil)
				c := b.constF("c", []float64{1})
				b.node("StackPush", "push", 2, nil, st.Out(0), c.Out(0))
			},
		},
		{
			name: "cycle not through NextIteration", wantCode: "cycle", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				a := b.node("Identity", "a", 1, nil, c.Out(0))
				x := b.node("Identity", "x", 1, nil, a.Out(0))
				a.ReplaceInput(0, x.Out(0))
			},
		},
		{
			name: "enter without frame name", wantCode: "enter-no-frame", wantNode: "e", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				b.node("Enter", "e", 1, map[string]any{}, c.Out(0))
			},
		},
		{
			name: "frame entered from two sibling frames", wantCode: "frame-nesting", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				ea := b.node("Enter", "ea", 1, enterAttrs("A"), c.Out(0))
				eb := b.node("Enter", "eb", 1, enterAttrs("B"), c.Out(0))
				b.node("Enter", "el1", 1, enterAttrs("L"), ea.Out(0))
				b.node("Enter", "el2", 1, enterAttrs("L"), eb.Out(0))
				opts.Complete = false // exits are not the point here
			},
		},
		{
			name: "next-iteration feeding a non-merge", wantCode: "ni-consumer", wantNode: "ni", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				ni := b.node("NextIteration", "ni", 1, nil, c.Out(0))
				b.node("Identity", "id", 1, nil, ni.Out(0))
			},
		},
		{
			name: "back edge crossing out of its frame", wantCode: "ni-frame-escape",
			wantNode: "ni", wantFrame: "L", wantPort: 0,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				e := b.node("Enter", "e", 1, enterAttrs("L"), c.Out(0))
				m := b.node("Merge", "m", 1, nil, e.Out(0), e.Out(0))
				outside := b.constF("outside", []float64{2})
				ni := b.node("NextIteration", "ni", 1, nil, outside.Out(0))
				m.ReplaceInput(1, ni.Out(0))
				ex := b.node("Exit", "exit", 1, nil, m.Out(0))
				_ = ex
				opts.Complete = true
			},
		},
		{
			name: "exit from the root frame", wantCode: "exit-outside-frame", wantNode: "ex", wantPort: 0,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				b.node("Exit", "ex", 1, nil, c.Out(0))
			},
		},
		{
			name: "loop frame with no exit", wantCode: "frame-no-exit", wantFrame: "L", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				pred := b.constB("pred", true)
				e := b.node("Enter", "e", 1, enterAttrs("L"), c.Out(0))
				m := b.node("Merge", "m", 1, nil, e.Out(0), e.Out(0))
				sw := b.node("Switch", "sw", 2, nil, m.Out(0), pred.Out(0))
				ni := b.node("NextIteration", "ni", 1, nil, sw.Out(1))
				m.ReplaceInput(1, ni.Out(0))
				opts.Complete = true
			},
		},
		{
			name: "merge whose inputs can never fire", wantCode: "merge-dead-input", wantNode: "m", wantPort: 0,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				m := b.node("Merge", "m", 1, nil, c.Out(0))
				ni := b.node("NextIteration", "ni", 1, nil, m.Out(0))
				m.ReplaceInput(0, ni.Out(0))
			},
		},
		{
			name: "switch predicate is not a bool", wantCode: "switch-pred-dtype", wantNode: "sw", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				d := b.constF("d", []float64{1})
				p := b.constI("p", 3)
				b.node("Switch", "sw", 2, nil, d.Out(0), p.Out(0))
			},
		},
		{
			name: "switch predicate is not a scalar", wantCode: "switch-pred-shape", wantNode: "sw", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				d := b.constF("d", []float64{1})
				p := b.node("Const", "p", 1, map[string]any{"value": tensor.FromBools([]bool{true, false}, 2)})
				b.node("Switch", "sw", 2, nil, d.Out(0), p.Out(0))
			},
		},
		{
			name: "loopcond on a non-bool", wantCode: "loopcond-dtype", wantNode: "lc", wantPort: 0,
			build: func(b *gb, opts *verify.Options) {
				p := b.constI("p", 1)
				b.node("LoopCond", "lc", 1, nil, p.Out(0))
			},
		},
		{
			name: "mixed dtypes into add", wantCode: "dtype-mismatch", wantNode: "add", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				f := b.constF("f", []float64{1})
				i := b.constI("i", 1)
				b.node("Add", "add", 1, nil, f.Out(0), i.Out(0))
			},
		},
		{
			name: "unbroadcastable operand shapes", wantCode: "shape-mismatch", wantNode: "add", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				a := b.constF("a", []float64{1, 2}, 2)
				c := b.constF("c", []float64{1, 2, 3}, 3)
				b.node("Add", "add", 1, nil, a.Out(0), c.Out(0))
			},
		},
		// Squeeze, Tile and the two variable scatters have exact facts: a
		// shape conflict downstream of each is definite.
		{
			name: "squeezed operand does not broadcast", wantCode: "shape-mismatch", wantNode: "add", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				x := b.constF("x", []float64{1, 2, 3}, 1, 3, 1)
				sq := b.node("Squeeze", "sq", 1, nil, x.Out(0))
				c := b.constF("c", []float64{1, 2}, 2)
				b.node("Add", "add", 1, nil, sq.Out(0), c.Out(0))
			},
		},
		{
			name: "tiled operand does not broadcast", wantCode: "shape-mismatch", wantNode: "add", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				x := b.constF("x", make([]float64, 6), 2, 3)
				tl := b.node("Tile", "tile", 1, map[string]any{"reps": 2}, x.Out(0))
				c := b.constF("c", make([]float64, 9), 3, 3)
				b.node("Add", "add", 1, nil, tl.Out(0), c.Out(0))
			},
		},
		{
			name: "scatter-added variable does not broadcast", wantCode: "shape-mismatch", wantNode: "add", wantPort: 1,
			build: func(b *gb, opts *verify.Options) { scatterThenAdd(b, "ScatterAddVar") },
		},
		{
			name: "scatter-updated variable does not broadcast", wantCode: "shape-mismatch", wantNode: "add", wantPort: 1,
			build: func(b *gb, opts *verify.Options) { scatterThenAdd(b, "ScatterUpdateVar") },
		},
		{
			name: "activation gradient of unequal shapes", wantCode: "shape-mismatch", wantNode: "sg", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				y := b.constF("y", []float64{1, 2}, 2)
				dy := b.constF("dy", []float64{1}, 1)
				b.node("SigmoidGrad", "sg", 1, nil, y.Out(0), dy.Out(0))
			},
		},
		{
			name: "activation gradient of an int", wantCode: "arith-dtype", wantNode: "tg", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				y := b.constF("y", []float64{1})
				dy := b.constI("dy", 1)
				b.node("TanhGrad", "tg", 1, nil, y.Out(0), dy.Out(0))
			},
		},
		{
			name: "matmul inner dimensions disagree", wantCode: "matmul-inner", wantNode: "mm", wantPort: 1,
			build: func(b *gb, opts *verify.Options) {
				a := b.constF("a", make([]float64, 6), 2, 3)
				c := b.constF("c", make([]float64, 20), 4, 5)
				b.node("MatMul", "mm", 1, nil, a.Out(0), c.Out(0))
			},
		},
		{
			name: "const without a value", wantCode: "const-no-value", wantNode: "c", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				b.node("Const", "c", 1, nil)
			},
		},
		{
			name: "send without a key", wantCode: "sendrecv-no-key", wantNode: "s", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				b.node("Send", "s", 0, nil, c.Out(0))
			},
		},
		{
			name: "recv with no paired send", wantCode: "recv-unpaired", wantNode: "r", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				b.node("Recv", "r", 1, map[string]any{"key": "e=x:0"})
				opts.Complete = true
			},
		},
		{
			name: "send with no paired recv", wantCode: "send-unpaired", wantNode: "s", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				b.node("Send", "s", 0, map[string]any{"key": "e=c:0"}, c.Out(0))
				opts.Complete = true
			},
		},
		{
			name: "duplicate rendezvous key", wantCode: "sendrecv-dup", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				c := b.constF("c", []float64{1})
				b.node("Send", "s1", 0, map[string]any{"key": "e=c:0"}, c.Out(0))
				b.node("Send", "s2", 0, map[string]any{"key": "e=c:0"}, c.Out(0))
				b.node("Recv", "r", 1, map[string]any{"key": "e=c:0"})
				opts.Complete = true
			},
		},
		{
			name: "cross-partition rendezvous deadlock", wantCode: "rendezvous-cycle", wantPort: -2,
			build: func(b *gb, opts *verify.Options) {
				// Partition A: recv(k2) -> send(k1); partition B:
				// recv(k1) -> send(k2). Each key pairs, yet neither value
				// can ever be produced.
				ra := b.node("Recv", "ra", 1, map[string]any{"key": "k2"})
				ia := b.node("Identity", "ia", 1, nil, ra.Out(0))
				b.node("Send", "sa", 0, map[string]any{"key": "k1"}, ia.Out(0))
				rb := b.node("Recv", "rb", 1, map[string]any{"key": "k1"})
				ib := b.node("Identity", "ib", 1, nil, rb.Out(0))
				b.node("Send", "sb", 0, map[string]any{"key": "k2"}, ib.Out(0))
				opts.Complete = true
			},
		},
	}
}

// scatterThenAdd assigns a [2, 3] variable, scatters one row into it with
// op, and adds the result to a [4] operand.
func scatterThenAdd(b *gb, op string) {
	v := map[string]any{"var": "v"}
	b.node("Assign", "init_v", 1, v, b.constF("init", make([]float64, 6), 2, 3).Out(0))
	ix := b.node("Const", "ix", 1, map[string]any{"value": tensor.FromInts([]int64{1}, 1)})
	sc := b.node(op, "scatter", 1, v, ix.Out(0), b.constF("row", make([]float64, 3), 1, 3).Out(0))
	b.node("Add", "add", 1, nil, sc.Out(0), b.constF("c", make([]float64, 4), 4).Out(0))
}

func TestRejectsIllFormedGraphs(t *testing.T) {
	for _, tc := range illFixtures() {
		t.Run(tc.name, func(t *testing.T) {
			b := newGB(t)
			opts := verify.Options{}
			tc.build(b, &opts)
			ds := verify.Check(b.g, opts)
			if len(ds) == 0 {
				t.Fatalf("expected diagnostics, got none")
			}
			var hit *verify.Diagnostic
			for i := range ds {
				if ds[i].Code == tc.wantCode {
					hit = &ds[i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %q diagnostic; got: %v", tc.wantCode, ds)
			}
			if tc.wantNode != "" && hit.Node != tc.wantNode {
				t.Errorf("diagnostic names node %q, want %q (%v)", hit.Node, tc.wantNode, hit)
			}
			if tc.wantFrame != "" && hit.Frame != tc.wantFrame {
				t.Errorf("diagnostic names frame %q, want %q (%v)", hit.Frame, tc.wantFrame, hit)
			}
			if tc.wantPort != -2 && hit.Port != tc.wantPort {
				t.Errorf("diagnostic names port %d, want %d (%v)", hit.Port, tc.wantPort, hit)
			}
			// Every diagnostic must render with node and op context.
			if hit.Node != "" && !strings.Contains(hit.Error(), hit.Node) {
				t.Errorf("rendered diagnostic %q does not name its node", hit.Error())
			}
		})
	}
}

func TestDiagnosticsError(t *testing.T) {
	var ds verify.Diagnostics
	if ds.Err() != nil {
		t.Fatal("empty diagnostics must convert to a nil error")
	}
	ds = append(ds, verify.Diagnostic{Node: "n", Op: "Add", Port: 1, Frame: "L", Code: "x", Msg: "boom"})
	msg := ds.Error()
	for _, want := range []string{"n", "Add", "port 1", `frame "L"`, "boom", "1 finding"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Diagnostics.Error() = %q: missing %q", msg, want)
		}
	}
}
