package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// AddNode accepts any input count; the Switch and Merge arity rules are
// enforced by verify.Check, which every boundary runs before execution.
func TestValidateMergeSwitchArity(t *testing.T) {
	for _, tc := range []struct {
		op   string
		outs int
		ins  int
	}{
		{"Switch", 2, 1}, // Switch takes data and predicate
		{"Merge", 2, 0},  // Merge needs at least one input
	} {
		g := graph.New()
		a, err := g.AddNode(graph.NodeArgs{Op: "Const", Name: "a", NumOutputs: 1,
			Attrs: map[string]any{"value": tensor.FromFloats([]float64{1})}})
		if err != nil {
			t.Fatal(err)
		}
		var ins []graph.Output
		for i := 0; i < tc.ins; i++ {
			ins = append(ins, a.Out(0))
		}
		if _, err := g.AddNode(graph.NodeArgs{Op: tc.op, Name: "n", NumOutputs: tc.outs, Inputs: ins}); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range verify.Check(g, verify.Options{Complete: true}) {
			if d.Code == "input-arity" && d.Node == "n" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s with %d input(s): expected an input-arity diagnostic", tc.op, tc.ins)
		}
	}
}
