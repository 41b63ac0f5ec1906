package cluster

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// TestAttrRoundTrip covers every attribute kind the wire format carries.
func TestAttrRoundTrip(t *testing.T) {
	cases := []struct {
		key string
		val any
	}{
		{"i", 42},
		{"i64", int64(7)},
		{"b", true},
		{"s", "frame/name"},
		{"f", 2.5},
		{"ints", []int{3, 1, 4}},
		{"tensor", tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2)},
	}
	for _, c := range cases {
		w, err := attrToWire(c.key, c.val)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		got, err := attrFromWire(w)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		switch want := c.val.(type) {
		case int64:
			if got != int(want) {
				t.Fatalf("%s: got %v", c.key, got)
			}
		case *tensor.Tensor:
			g := got.(*tensor.Tensor)
			if g.DType() != want.DType() || g.String() != want.String() {
				t.Fatalf("%s: got %v want %v", c.key, g, want)
			}
		case []int:
			g := got.([]int)
			for i := range want {
				if g[i] != want[i] {
					t.Fatalf("%s: got %v", c.key, g)
				}
			}
		default:
			if got != c.val {
				t.Fatalf("%s: got %v want %v", c.key, got, c.val)
			}
		}
	}
	if _, err := attrToWire("bad", struct{}{}); err == nil {
		t.Fatal("unserializable attribute accepted")
	}
	// Kind 6 carried the retired fused-chain program; a peer that still
	// sends it is refused at decode and at registration.
	retired := WireAttr{Key: "steps", Kind: 6}
	if _, err := attrFromWire(retired); err == nil || !strings.Contains(err.Error(), "unknown wire kind 6") {
		t.Fatalf("retired kind: err %v, want unknown wire kind", err)
	}
	_, _, err := BuildGraph([]WireNode{{Name: "n", Op: "Const", NumOutputs: 1, Attrs: []WireAttr{retired}}})
	if err == nil || !strings.Contains(err.Error(), "node n: cluster: attribute \"steps\" has unknown wire kind 6") {
		t.Fatalf("BuildGraph with a retired kind: err %v", err)
	}
}

// TestGraphRoundTripWhileLoopPartition encodes a real partitioned
// while-loop node set (cycles through NextIteration, control-loop state
// machine, Send/Recv keys, Const tensors) and rebuilds it, asserting the
// structure survives byte-exact at the level the executor reads.
func TestGraphRoundTripWhileLoopPartition(t *testing.T) {
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("wA/cpu", func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(5)) },
			func(v []graph.Output) []graph.Output {
				var r graph.Output
				b.WithDevice("wB/cpu", func() {
					r = b.Add(v[0], b.Scalar(1))
				})
				return []graph.Output{r}
			},
			core.WhileOpts{Name: "wireloop"},
		)
	})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	nodes, err := core.Prune(b.G, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(b.G, nodes, func(dev string) string {
		return strings.SplitN(dev, "/", 2)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for dev, nodes := range res.Parts {
		wire, err := EncodeNodes(nodes)
		if err != nil {
			t.Fatalf("%s: encode: %v", dev, err)
		}
		g2, byName, err := BuildGraph(wire)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", dev, err)
		}
		if g2.NumNodes() != len(nodes)+1 { // +1 sentinel
			t.Fatalf("%s: %d nodes rebuilt, want %d", dev, g2.NumNodes(), len(nodes)+1)
		}
		for _, n := range nodes {
			m := byName[n.Name()]
			if m == nil {
				t.Fatalf("%s: node %s lost", dev, n.Name())
			}
			if m.Op() != n.Op() || m.Device() != n.Device() || m.NumOutputs() != n.NumOutputs() {
				t.Fatalf("%s: node %s metadata diverged", dev, n.Name())
			}
			if m.NumInputs() != n.NumInputs() {
				t.Fatalf("%s: node %s arity diverged", dev, n.Name())
			}
			for i, in := range n.Inputs() {
				min := m.Input(i)
				if min.Node.Name() != in.Node.Name() || min.Index != in.Index {
					t.Fatalf("%s: node %s input %d: %s vs %s", dev, n.Name(), i, min, in)
				}
			}
			if n.AttrString("key") != m.AttrString("key") {
				t.Fatalf("%s: node %s rendezvous key diverged", dev, n.Name())
			}
			if n.AttrString("frame_name") != m.AttrString("frame_name") {
				t.Fatalf("%s: node %s frame diverged", dev, n.Name())
			}
		}
		if err := verify.Check(g2, verify.Options{}).Err(); err != nil {
			t.Fatalf("%s: rebuilt graph invalid: %v", dev, err)
		}
	}
}

func TestScopeNameRoundTrip(t *testing.T) {
	for _, c := range []struct{ g, s uint64 }{{1, 1}, {0, 0}, {12, 100345}} {
		g, s, ok := ParseScope(ScopeName(c.g, c.s))
		if !ok || g != c.g || s != c.s {
			t.Fatalf("round trip failed for %v: got %d %d %v", c, g, s, ok)
		}
	}
	for _, bad := range []string{"", "x", "g1", "g1.s", "g.s1", "step5"} {
		if _, _, ok := ParseScope(bad); ok {
			t.Fatalf("ParseScope accepted %q", bad)
		}
	}
}
