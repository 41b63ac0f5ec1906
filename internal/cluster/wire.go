// Package cluster is the multi-process cluster runtime: a generic worker
// daemon (Worker) that accepts gob-encoded graph registrations and executes
// multi-step runs against cached per-worker plans, and the driver-side
// client (Client) that registers partitioned graphs, launches steps,
// propagates cancellation, and collects fetch values.
//
// Partitions on different workers make independent progress, coordinating
// only through the TCP rendezvous (internal/rendezvous.Net) — the driver is
// involved only at step start and at completion or failure, the §3 shape.
// Every step runs in a private rendezvous scope ("g<graph>.s<step>"), so an
// aborted or failed step can never leak tokens into the next one. See
// README.md in this directory for the wire protocol and failure model.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// WireTensor is the gob form of a dense tensor (feeds, fetches, and Const
// attributes cross the control connection in this shape).
type WireTensor struct {
	DType int
	Shape []int
	F     []float64
	I     []int64
	B     []bool
	S     []string
}

// TensorToWire converts a tensor for transport.
func TensorToWire(t *tensor.Tensor) *WireTensor {
	if t == nil {
		return nil
	}
	return &WireTensor{
		DType: int(t.DType()),
		Shape: t.Shape(),
		F:     t.F,
		I:     t.I,
		B:     t.B,
		S:     t.S,
	}
}

// TensorFromWire rebuilds a tensor. The wire tensor is untrusted:
// tensor.Decoded validates it, so a malformed or hostile envelope yields a
// diagnosed error, never a panic in the worker.
func TensorFromWire(w *WireTensor) (*tensor.Tensor, error) {
	if w == nil {
		return nil, nil
	}
	t, err := tensor.Decoded(w.DType, w.Shape, w.F, w.I, w.B, w.S)
	if err != nil {
		return nil, fmt.Errorf("cluster: malformed wire tensor: %w", err)
	}
	return t, nil
}

// Attribute kinds of WireAttr (an explicit tagged union: gob needs no
// interface registration and unknown kinds fail loudly at decode).
const (
	attrInt = iota
	attrBool
	attrString
	attrFloat
	attrInts
	attrTensor
)

// WireAttr is one node attribute in transportable form.
type WireAttr struct {
	Key  string
	Kind int
	I    int64
	B    bool
	S    string
	F    float64
	Ints []int
	T    *WireTensor
}

func attrToWire(key string, v any) (WireAttr, error) {
	a := WireAttr{Key: key}
	switch x := v.(type) {
	case int:
		a.Kind, a.I = attrInt, int64(x)
	case int64:
		a.Kind, a.I = attrInt, x
	case bool:
		a.Kind, a.B = attrBool, x
	case string:
		a.Kind, a.S = attrString, x
	case float64:
		a.Kind, a.F = attrFloat, x
	case []int:
		a.Kind, a.Ints = attrInts, x
	case *tensor.Tensor:
		a.Kind, a.T = attrTensor, TensorToWire(x)
	default:
		return a, fmt.Errorf("cluster: attribute %q has unserializable type %T", key, v)
	}
	return a, nil
}

func attrFromWire(a WireAttr) (any, error) {
	switch a.Kind {
	case attrInt:
		return int(a.I), nil
	case attrBool:
		return a.B, nil
	case attrString:
		return a.S, nil
	case attrFloat:
		return a.F, nil
	case attrInts:
		return a.Ints, nil
	case attrTensor:
		return TensorFromWire(a.T)
	}
	return nil, fmt.Errorf("cluster: attribute %q has unknown wire kind %d", a.Key, a.Kind)
}

// WireOutput references a node output port by producer name.
type WireOutput struct {
	Node  string
	Index int
}

// WireNode is one graph node in transportable form. Inputs reference
// producers by name; the control-flow context pointer is intentionally
// absent — the executor never reads it (contexts exist for graph
// construction, autodiff, and partitioning, all of which happen on the
// driver).
type WireNode struct {
	Name       string
	Op         string
	Device     string
	NumOutputs int
	Inputs     []WireOutput
	ControlIn  []string
	Attrs      []WireAttr
}

// WirePartition is one device's slice of a registration: the names of its
// nodes (into RegisterGraph.Nodes) and the fetches its executor returns, in
// the order the driver will reassemble them.
type WirePartition struct {
	Device  string
	Nodes   []string
	Fetches []WireOutput
}

// EncodeNodes converts a closed node set (every input and control edge stays
// inside the set — partitioning guarantees this per worker) into wire form.
// Nodes are emitted in a topological order treating NextIteration inputs as
// back edges, so the receiver can rebuild the graph in one pass plus a
// back-edge fixup.
func EncodeNodes(nodes []*graph.Node) ([]WireNode, error) {
	order, err := topoOrder(nodes)
	if err != nil {
		return nil, err
	}
	out := make([]WireNode, len(order))
	for i, n := range order {
		wn := WireNode{
			Name:       n.Name(),
			Op:         n.Op(),
			Device:     n.Device(),
			NumOutputs: n.NumOutputs(),
		}
		for _, in := range n.InputsRef() {
			wn.Inputs = append(wn.Inputs, WireOutput{Node: in.Node.Name(), Index: in.Index})
		}
		for _, c := range n.ControlInputsRef() {
			wn.ControlIn = append(wn.ControlIn, c.Name())
		}
		for k, v := range n.AttrsMap() {
			if v == nil {
				continue
			}
			// Underscore-prefixed attributes are driver-side construction
			// metadata (e.g. core.ConstructAttr, the control-flow context
			// autodiff and partitioning read); the executor never touches
			// them, so they do not cross the wire.
			if strings.HasPrefix(k, "_") {
				continue
			}
			a, err := attrToWire(k, v)
			if err != nil {
				return nil, fmt.Errorf("cluster: node %s: %w", n.Name(), err)
			}
			wn.Attrs = append(wn.Attrs, a)
		}
		out[i] = wn
	}
	return out, nil
}

// topoOrder sorts the node set topologically with NextIteration inputs as
// back edges (the only legal cycles), erroring on any other cycle or on an
// edge escaping the set.
func topoOrder(nodes []*graph.Node) ([]*graph.Node, error) {
	inSet := make(map[int]int, len(nodes)) // node id -> position
	for i, n := range nodes {
		inSet[n.ID()] = i
	}
	indeg := make([]int, len(nodes))
	succ := make([][]int, len(nodes))
	for i, n := range nodes {
		if graph.IsBackEdgeOp(n.Op()) {
			continue
		}
		seen := map[int]bool{}
		edge := func(src *graph.Node) error {
			j, ok := inSet[src.ID()]
			if !ok {
				return fmt.Errorf("cluster: edge %s -> %s escapes the worker's node set", src.Name(), n.Name())
			}
			if !seen[j] {
				seen[j] = true
				indeg[i]++
				succ[j] = append(succ[j], i)
			}
			return nil
		}
		for _, in := range n.InputsRef() {
			if err := edge(in.Node); err != nil {
				return nil, err
			}
		}
		for _, c := range n.ControlInputsRef() {
			if err := edge(c); err != nil {
				return nil, err
			}
		}
	}
	var ready []int
	for i := range nodes {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	var order []*graph.Node
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, nodes[i])
		for _, s := range succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, fmt.Errorf("cluster: node set has a cycle not through NextIteration")
	}
	return order, nil
}

// BuildGraph rebuilds a graph from wire nodes. Back-edge inputs (inputs of
// NextIteration nodes referencing not-yet-created producers) are created
// against a sentinel and patched once every node exists.
func BuildGraph(nodes []WireNode) (*graph.Graph, map[string]*graph.Node, error) {
	g := graph.New()
	byName := make(map[string]*graph.Node, len(nodes))
	// The sentinel is never executed (it belongs to no partition); it only
	// gives forward references a valid port until the fixup pass.
	sentinel, err := g.AddNode(graph.NodeArgs{
		Op:         "Const",
		Name:       "__wire_sentinel",
		Attrs:      map[string]any{"value": tensor.Scalar(0)},
		NumOutputs: 1,
	})
	if err != nil {
		return nil, nil, err
	}
	type inFixup struct {
		node *graph.Node
		idx  int
		src  WireOutput
	}
	type ctlFixup struct {
		node *graph.Node
		src  string
	}
	var inFixups []inFixup
	var ctlFixups []ctlFixup
	for _, wn := range nodes {
		if _, dup := byName[wn.Name]; dup {
			return nil, nil, fmt.Errorf("cluster: duplicate node name %q in registration", wn.Name)
		}
		backEdge := graph.IsBackEdgeOp(wn.Op)
		args := graph.NodeArgs{
			Op:         wn.Op,
			Name:       wn.Name,
			Device:     wn.Device,
			NumOutputs: wn.NumOutputs,
		}
		for _, wi := range wn.Inputs {
			src, ok := byName[wi.Node]
			if !ok {
				if !backEdge {
					return nil, nil, fmt.Errorf("cluster: node %s input %s not yet defined (registration out of order)", wn.Name, wi.Node)
				}
				args.Inputs = append(args.Inputs, sentinel.Out(0))
				continue
			}
			args.Inputs = append(args.Inputs, src.Out(wi.Index))
		}
		for _, cn := range wn.ControlIn {
			c, ok := byName[cn]
			if !ok {
				if !backEdge {
					return nil, nil, fmt.Errorf("cluster: node %s control input %s not yet defined", wn.Name, cn)
				}
				continue // attached in the fixup pass
			}
			args.ControlIn = append(args.ControlIn, c)
		}
		if len(wn.Attrs) > 0 {
			args.Attrs = make(map[string]any, len(wn.Attrs))
			for _, a := range wn.Attrs {
				v, err := attrFromWire(a)
				if err != nil {
					return nil, nil, fmt.Errorf("cluster: node %s: %w", wn.Name, err)
				}
				args.Attrs[a.Key] = v
			}
		}
		n, err := g.AddNode(args)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: rebuild node %s: %w", wn.Name, err)
		}
		if n.Name() != wn.Name {
			return nil, nil, fmt.Errorf("cluster: node name %q was uniquified to %q on rebuild", wn.Name, n.Name())
		}
		byName[wn.Name] = n
		if backEdge {
			for i, wi := range wn.Inputs {
				if _, ok := byName[wi.Node]; !ok {
					inFixups = append(inFixups, inFixup{node: n, idx: i, src: wi})
				}
			}
			for _, cn := range wn.ControlIn {
				if _, ok := byName[cn]; !ok {
					ctlFixups = append(ctlFixups, ctlFixup{node: n, src: cn})
				}
			}
		}
	}
	for _, f := range inFixups {
		src, ok := byName[f.src.Node]
		if !ok {
			return nil, nil, fmt.Errorf("cluster: back edge %s -> %s references an absent node", f.src.Node, f.node.Name())
		}
		// ReplaceInput skips AddNode's port validation, so check the
		// untrusted wire index here.
		out := src.Out(f.src.Index)
		if !out.Valid() {
			return nil, nil, fmt.Errorf("cluster: back edge %s:%d -> %s references an invalid output port", f.src.Node, f.src.Index, f.node.Name())
		}
		f.node.ReplaceInput(f.idx, out)
	}
	for _, f := range ctlFixups {
		src, ok := byName[f.src]
		if !ok {
			return nil, nil, fmt.Errorf("cluster: back control edge %s -> %s references an absent node", f.src, f.node.Name())
		}
		f.node.AddControlInput(src)
	}
	return g, byName, nil
}

// SnapshotsToWire converts a captured variable map into wire snapshots,
// sorted by name so shards serialize deterministically.
func SnapshotsToWire(vars map[string]*tensor.Tensor) []VarSnapshot {
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]VarSnapshot, len(names))
	for i, n := range names {
		out[i] = VarSnapshot{Name: n, T: TensorToWire(vars[n])}
	}
	return out
}

// SnapshotsFromWire rebuilds a variable map from wire snapshots.
func SnapshotsFromWire(snaps []VarSnapshot) (map[string]*tensor.Tensor, error) {
	out := make(map[string]*tensor.Tensor, len(snaps))
	for _, s := range snaps {
		t, err := TensorFromWire(s.T)
		if err != nil {
			return nil, fmt.Errorf("cluster: variable %q: %w", s.Name, err)
		}
		if t == nil {
			return nil, fmt.Errorf("cluster: variable %q has no value", s.Name)
		}
		out[s.Name] = t
	}
	return out, nil
}

// HostedVars returns the sorted set of session-variable names a wire node
// set touches (the "var" attribute of VarRead/Assign/AssignAdd/... ops) —
// how the driver routes checkpoint shards to the workers that own them.
func HostedVars(nodes []WireNode) []string {
	seen := map[string]bool{}
	for _, n := range nodes {
		for _, a := range n.Attrs {
			if a.Key == "var" && a.Kind == attrString && !seen[a.S] {
				seen[a.S] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FeedsToWire converts a feed map for transport.
func FeedsToWire(feeds map[string]*tensor.Tensor) map[string]*WireTensor {
	if len(feeds) == 0 {
		return nil
	}
	out := make(map[string]*WireTensor, len(feeds))
	for k, v := range feeds {
		out[k] = TensorToWire(v)
	}
	return out
}

// FeedsFromWire rebuilds a feed map.
func FeedsFromWire(w map[string]*WireTensor) (map[string]*tensor.Tensor, error) {
	if len(w) == 0 {
		return nil, nil
	}
	out := make(map[string]*tensor.Tensor, len(w))
	for k, v := range w {
		t, err := TensorFromWire(v)
		if err != nil {
			return nil, fmt.Errorf("cluster: feed %q: %w", k, err)
		}
		out[k] = t
	}
	return out, nil
}
