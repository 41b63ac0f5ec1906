package graph

import (
	"strings"
	"testing"
)

func addN(t *testing.T, g *Graph, op, name string, outs int, inputs ...Output) *Node {
	t.Helper()
	n, err := g.AddNode(NodeArgs{Op: op, Name: name, Inputs: inputs, NumOutputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAddNodeAndLookup(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "a", 1)
	if g.ByName("a") != a || g.NumNodes() != 1 {
		t.Fatal("lookup failed")
	}
	if a.ID() != 0 || a.Op() != "Const" || a.NumOutputs() != 1 {
		t.Fatalf("node fields: %v", a)
	}
}

func TestNameUniquification(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "x", 1)
	b := addN(t, g, "Const", "x", 1)
	c := addN(t, g, "Const", "", 1)
	d := addN(t, g, "Const", "", 1)
	if a.Name() != "x" || b.Name() != "x_1" {
		t.Fatalf("names %q %q", a.Name(), b.Name())
	}
	if c.Name() != "Const" || d.Name() != "Const_1" {
		t.Fatalf("default names %q %q", c.Name(), d.Name())
	}
}

func TestAddNodeErrors(t *testing.T) {
	g := New()
	if _, err := g.AddNode(NodeArgs{Op: "", NumOutputs: 1}); err == nil {
		t.Fatal("expected empty-op error")
	}
	if _, err := g.AddNode(NodeArgs{Op: "Add", NumOutputs: 1, Inputs: []Output{{}}}); err == nil {
		t.Fatal("expected nil-input error")
	}
	a := addN(t, g, "Const", "a", 1)
	if _, err := g.AddNode(NodeArgs{Op: "Id", NumOutputs: 1, Inputs: []Output{{a, 3}}}); err == nil {
		t.Fatal("expected bad-port error")
	}
	other := New()
	b := addN(t, other, "Const", "b", 1)
	if _, err := g.AddNode(NodeArgs{Op: "Id", NumOutputs: 1, Inputs: []Output{b.Out(0)}}); err == nil {
		t.Fatal("expected cross-graph error")
	}
}

func TestAttrs(t *testing.T) {
	g := New()
	n, err := g.AddNode(NodeArgs{Op: "Const", NumOutputs: 1, Attrs: map[string]any{
		"s": "hello", "i": 42, "b": true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n.AttrString("s") != "hello" || n.AttrInt("i") != 42 || !n.AttrBool("b") {
		t.Fatal("attr accessors")
	}
	if n.AttrString("missing") != "" || n.AttrInt("missing") != 0 || n.AttrBool("missing") {
		t.Fatal("missing attr defaults")
	}
	n.SetAttr("later", 7)
	if n.AttrInt("later") != 7 {
		t.Fatal("SetAttr")
	}
}

func TestControlInputsDedup(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "a", 1)
	b := addN(t, g, "Const", "b", 1)
	b.AddControlInput(a)
	b.AddControlInput(a)
	if len(b.ControlInputs()) != 1 {
		t.Fatalf("control inputs: %v", b.ControlInputs())
	}
}

func TestTopoSortLinear(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "a", 1)
	b := addN(t, g, "Neg", "b", 1, a.Out(0))
	c := addN(t, g, "Neg", "c", 1, b.Out(0))
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name()] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Fatalf("order %v", order)
	}
	_ = c
}

func TestTopoSortAllowsNextIterationCycle(t *testing.T) {
	g := New()
	enter := addN(t, g, "Enter", "enter", 1)
	merge := addN(t, g, "Merge", "merge", 2, enter.Out(0), enter.Out(0))
	sw := addN(t, g, "Switch", "switch", 2, merge.Out(0), enter.Out(0))
	ni := addN(t, g, "NextIteration", "ni", 1, sw.Out(1))
	merge.ReplaceInput(1, ni.Out(0))
	if _, err := g.TopoSort(); err != nil {
		t.Fatalf("cycle through NextIteration should be fine: %v", err)
	}
}

func TestTopoSortRejectsBadCycle(t *testing.T) {
	g := New()
	a := addN(t, g, "Neg", "a", 1)
	b := addN(t, g, "Neg", "b", 1, a.Out(0))
	// Manually create an illegal cycle a <- b.
	a.inputs = append(a.inputs, b.Out(0))
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestConsumers(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "a", 1)
	b := addN(t, g, "Neg", "b", 1, a.Out(0))
	c := addN(t, g, "Add", "c", 1, a.Out(0), b.Out(0))
	cons := g.Consumers()
	if len(cons[a.ID()]) != 2 {
		t.Fatalf("a consumers: %v", cons[a.ID()])
	}
	edges := g.ConsumersOf(a.Out(0))
	if len(edges) != 2 {
		t.Fatalf("edges: %v", edges)
	}
	_ = c
}

func TestReplaceInput(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "a", 1)
	b := addN(t, g, "Const", "b", 1)
	c := addN(t, g, "Neg", "c", 1, a.Out(0))
	c.ReplaceInput(0, b.Out(0))
	if c.Input(0).Node != b {
		t.Fatal("ReplaceInput")
	}
}

func TestDeviceAssignment(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "a", 1)
	a.SetDevice("gpu:1")
	if a.Device() != "gpu:1" {
		t.Fatal("device")
	}
}

func TestDOTAndStats(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "a", 1)
	addN(t, g, "Switch", "sw", 2, a.Out(0), a.Out(0))
	dot := g.DOT()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "Switch") {
		t.Fatalf("dot: %s", dot)
	}
	stats := g.Stats()
	if stats["Const"] != 1 || stats["Switch"] != 1 {
		t.Fatalf("stats: %v", stats)
	}
}

func TestNodeString(t *testing.T) {
	g := New()
	a := addN(t, g, "Const", "a", 1)
	b := addN(t, g, "Neg", "b", 1, a.Out(0))
	b.AddControlInput(a)
	s := b.String()
	if !strings.Contains(s, "Neg(a:0, ^a)") {
		t.Fatalf("String: %s", s)
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	g := New()
	v0 := g.Version()
	a := addN(t, g, "Const", "a", 1)
	b := addN(t, g, "Neg", "b", 1, a.Out(0))
	if g.Version() == v0 {
		t.Fatal("AddNode must bump the version")
	}
	// In-place rewrites (what CSE/folding do) must bump it too, even
	// though the node count is unchanged.
	cases := []struct {
		name string
		fn   func()
	}{
		{"ReplaceInput", func() { b.ReplaceInput(0, a.Out(0)) }},
		{"AddControlInput", func() { b.AddControlInput(a) }},
		{"SetAttr", func() { b.SetAttr("k", 1) }},
		{"SetDevice", func() { b.SetDevice("gpu:0") }},
	}
	for _, c := range cases {
		before := g.Version()
		c.fn()
		if g.Version() == before {
			t.Fatalf("%s must bump the version", c.name)
		}
	}
}
