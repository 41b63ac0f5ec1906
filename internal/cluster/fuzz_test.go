package cluster

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// fuzzEnvelope bundles every wire shape a worker decodes from the driver,
// so one gob stream exercises graph rebuild, snapshot restore, and feed
// reconstruction together.
type fuzzEnvelope struct {
	Nodes []WireNode
	Snaps []VarSnapshot
	Feeds map[string]*WireTensor
}

func fuzzSeed(f *testing.F, env fuzzEnvelope) {
	f.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

// FuzzWireDecode asserts the worker-side decode path never panics on a
// malformed registration: hostile tensors (bad dtypes, negative or
// overflowing shapes), dangling or out-of-range port references, duplicate
// names, and arbitrary gob garbage must all surface as errors.
func FuzzWireDecode(f *testing.F) {
	// Seed 1: a real partitioned while loop (cycles through NextIteration,
	// Send/Recv, Const tensor attrs) — the richest legitimate input.
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("wA/cpu", func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
			func(v []graph.Output) []graph.Output {
				var r graph.Output
				b.WithDevice("wB/cpu", func() {
					r = b.Add(v[0], b.Scalar(1))
				})
				return []graph.Output{r}
			},
			core.WhileOpts{Name: "fuzzloop"},
		)
	})
	if err := b.Err(); err != nil {
		f.Fatal(err)
	}
	nodes, err := core.Prune(b.G, outs, nil)
	if err != nil {
		f.Fatal(err)
	}
	res, err := partition.Partition(b.G, nodes, func(dev string) string {
		return strings.SplitN(dev, "/", 2)[0]
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, nodes := range res.Parts {
		wire, err := EncodeNodes(nodes)
		if err != nil {
			f.Fatal(err)
		}
		fuzzSeed(f, fuzzEnvelope{
			Nodes: wire,
			Snaps: SnapshotsToWire(map[string]*tensor.Tensor{
				"w": tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2),
			}),
			Feeds: FeedsToWire(map[string]*tensor.Tensor{"x": tensor.Scalar(1)}),
		})
	}

	// Seed 2: hostile shapes and references that must be rejected, not
	// trip the panicking tensor constructors or index out of range.
	fuzzSeed(f, fuzzEnvelope{
		Nodes: []WireNode{
			{Name: "c", Op: "Const", NumOutputs: 1, Attrs: []WireAttr{{
				Key: "value", Kind: attrTensor,
				T: &WireTensor{DType: int(tensor.Float), Shape: []int{-1}, F: []float64{1}},
			}}},
			{Name: "ni", Op: "NextIteration", NumOutputs: 1, Inputs: []WireOutput{{Node: "later", Index: 99}}},
			{Name: "later", Op: "Identity", NumOutputs: 1, Inputs: []WireOutput{{Node: "c", Index: 0}}},
		},
		Snaps: []VarSnapshot{
			{Name: "ovf", T: &WireTensor{DType: int(tensor.Int), Shape: []int{1 << 32, 1 << 32}}},
			{Name: "dtype", T: &WireTensor{DType: 42}},
			{Name: "nil"},
		},
		Feeds: map[string]*WireTensor{
			"short": {DType: int(tensor.Bool), Shape: []int{7}, B: []bool{true}},
		},
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		var env fuzzEnvelope
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
			return
		}
		if g, byName, err := BuildGraph(env.Nodes); err == nil {
			// A graph that decodes must be internally consistent enough to
			// re-encode (minus the sentinel, which belongs to no set).
			var nodes []*graph.Node
			for _, n := range byName {
				nodes = append(nodes, n)
			}
			_, _ = EncodeNodes(nodes)
			_ = g.NumNodes()
			_ = HostedVars(env.Nodes)
		}
		_, _ = SnapshotsFromWire(env.Snaps)
		_, _ = FeedsFromWire(env.Feeds)
	})
}
