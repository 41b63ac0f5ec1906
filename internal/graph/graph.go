// Package graph defines the dataflow graph intermediate representation used
// throughout the system: operations (nodes) connected by tensor-carrying
// data edges and by control edges that impose execution order. The graph is
// the unit the runtime verifies, partitions across devices, and executes —
// the "in-graph" approach the paper advocates.
//
// Graphs may be cyclic, but only through the control-flow primitive
// NextIteration (cycles are introduced exclusively by while-loops); the
// topological-sort helpers treat NextIteration input edges as back edges.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Output identifies a single output port of a node: the source of a data
// edge.
type Output struct {
	Node  *Node
	Index int
}

// String returns "name:index".
func (o Output) String() string {
	if o.Node == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s:%d", o.Node.Name(), o.Index)
}

// Valid reports whether the output refers to a real port.
func (o Output) Valid() bool {
	return o.Node != nil && o.Index >= 0 && o.Index < o.Node.NumOutputs()
}

// Node is a single operation instance in a graph.
type Node struct {
	id         int
	name       string
	op         string
	inputs     []Output
	controlIn  []*Node
	attrs      map[string]any
	device     string
	numOutputs int
	graph      *Graph

	// Ctx is the control-flow context the node was constructed in. It is
	// declared as `any` to avoid a dependency cycle with the control-flow
	// builder; the builder and autodiff packages own its concrete type.
	Ctx any
}

// ID returns the node's dense per-graph id.
func (n *Node) ID() int { return n.id }

// Name returns the unique node name.
func (n *Node) Name() string { return n.name }

// Op returns the operation type name (e.g. "MatMul", "Switch").
func (n *Node) Op() string { return n.op }

// NumInputs returns the number of data inputs.
func (n *Node) NumInputs() int { return len(n.inputs) }

// Input returns the i-th data input edge source.
func (n *Node) Input(i int) Output { return n.inputs[i] }

// Inputs returns a copy of the data input list.
func (n *Node) Inputs() []Output { return append([]Output(nil), n.inputs...) }

// InputsRef returns the data input list without copying; callers must not
// modify it or hold it across graph rewrites. Plan construction and graph
// analyses use it to avoid a copy per node.
func (n *Node) InputsRef() []Output { return n.inputs }

// ControlInputs returns a copy of the control dependency list.
func (n *Node) ControlInputs() []*Node { return append([]*Node(nil), n.controlIn...) }

// ControlInputsRef returns the control dependency list without copying;
// the same caveats as InputsRef apply.
func (n *Node) ControlInputsRef() []*Node { return n.controlIn }

// NumControlInputs returns the number of control dependencies.
func (n *Node) NumControlInputs() int { return len(n.controlIn) }

// NumOutputs returns the number of output ports.
func (n *Node) NumOutputs() int { return n.numOutputs }

// Output returns the i-th output port of the node.
func (n *Node) Out(i int) Output { return Output{n, i} }

// Device returns the device assignment ("" means unplaced).
func (n *Node) Device() string { return n.device }

// SetDevice assigns the node to a device.
func (n *Node) SetDevice(d string) {
	n.device = d
	n.graph.bumpVersion()
}

// Graph returns the owning graph.
func (n *Node) Graph() *Graph { return n.graph }

// Attr returns the named attribute, or nil.
func (n *Node) Attr(key string) any { return n.attrs[key] }

// AttrsMap returns the node's attribute map. The map is shared with the
// node; callers must not mutate it during execution.
func (n *Node) AttrsMap() map[string]any { return n.attrs }

// SetAttr sets an attribute after construction (used by rewrites).
func (n *Node) SetAttr(key string, v any) {
	if n.attrs == nil {
		n.attrs = map[string]any{}
	}
	n.attrs[key] = v
	n.graph.bumpVersion()
}

// AttrString returns a string attribute (or "" if absent).
func (n *Node) AttrString(key string) string {
	if v, ok := n.attrs[key].(string); ok {
		return v
	}
	return ""
}

// AttrInt returns an int attribute (or 0 if absent).
func (n *Node) AttrInt(key string) int {
	switch v := n.attrs[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	}
	return 0
}

// AttrBool returns a bool attribute (or false if absent).
func (n *Node) AttrBool(key string) bool {
	if v, ok := n.attrs[key].(bool); ok {
		return v
	}
	return false
}

// String renders a one-line description.
func (n *Node) String() string {
	var in []string
	for _, i := range n.inputs {
		in = append(in, i.String())
	}
	for _, c := range n.controlIn {
		in = append(in, "^"+c.Name())
	}
	return fmt.Sprintf("%s = %s(%s)", n.name, n.op, strings.Join(in, ", "))
}

// AddControlInput appends a control dependency after construction (used by
// graph rewrites such as stack-ordering and partition control loops).
func (n *Node) AddControlInput(c *Node) {
	for _, e := range n.controlIn {
		if e == c {
			return
		}
	}
	n.controlIn = append(n.controlIn, c)
	n.graph.bumpVersion()
}

// ReplaceInput redirects the i-th data input to a new source (used by
// partition rewriting).
func (n *Node) ReplaceInput(i int, src Output) {
	n.inputs[i] = src
	n.graph.bumpVersion()
}

// ReplaceControlInput swaps a control dependency for another (used by
// partition rewriting to route control edges through Send/Recv).
func (n *Node) ReplaceControlInput(old, new *Node) {
	for i, c := range n.controlIn {
		if c == old {
			n.controlIn[i] = new
			n.graph.bumpVersion()
			return
		}
	}
}

// Graph is a mutable dataflow graph. It is safe for concurrent node
// addition; execution-time structures take a snapshot.
type Graph struct {
	mu         sync.Mutex
	nodes      []*Node
	byName     map[string]*Node
	nameCounts map[string]int

	// version counts structural mutations: node additions and in-place
	// edge/attribute rewrites (an added control edge or a rewired input
	// changes no node count). Caches keyed on
	// graph identity — notably the session plan cache — fold it into
	// their keys so a rewrite can never serve a stale plan.
	version atomic.Uint64
}

// Version returns the mutation counter. It increases monotonically with
// every AddNode and every in-place rewrite (ReplaceInput, AddControlInput,
// SetAttr, SetDevice, ...); equal versions imply an unchanged structure.
func (g *Graph) Version() uint64 { return g.version.Load() }

func (g *Graph) bumpVersion() { g.version.Add(1) }

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		byName:     map[string]*Node{},
		nameCounts: map[string]int{},
	}
}

// NodeArgs describes a node to add.
type NodeArgs struct {
	Op         string
	Name       string // optional; uniquified op-name if empty
	Inputs     []Output
	ControlIn  []*Node
	Attrs      map[string]any
	Device     string
	NumOutputs int
	Ctx        any
}

// AddNode adds a node. Node names are uniquified: requesting "x" twice
// yields "x" and "x_1".
func (g *Graph) AddNode(args NodeArgs) (*Node, error) {
	if args.Op == "" {
		return nil, fmt.Errorf("graph: node must have an op")
	}
	if args.NumOutputs < 0 {
		return nil, fmt.Errorf("graph: negative NumOutputs for op %s", args.Op)
	}
	for i, in := range args.Inputs {
		if in.Node == nil {
			return nil, fmt.Errorf("graph: %s input %d is nil", args.Op, i)
		}
		if in.Node.graph != g {
			return nil, fmt.Errorf("graph: %s input %d (%s) belongs to another graph", args.Op, i, in)
		}
		if !in.Valid() {
			return nil, fmt.Errorf("graph: %s input %d (%s) references invalid port", args.Op, i, in)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	base := args.Name
	if base == "" {
		base = args.Op
	}
	name := base
	if c := g.nameCounts[base]; c > 0 {
		name = fmt.Sprintf("%s_%d", base, c)
	}
	g.nameCounts[base]++
	if _, dup := g.byName[name]; dup {
		// Uniquify against explicitly-chosen colliding names.
		for i := g.nameCounts[name]; ; i++ {
			cand := fmt.Sprintf("%s_%d", name, i)
			if _, ok := g.byName[cand]; !ok {
				name = cand
				break
			}
		}
	}
	n := &Node{
		id:         len(g.nodes),
		name:       name,
		op:         args.Op,
		inputs:     append([]Output(nil), args.Inputs...),
		controlIn:  append([]*Node(nil), args.ControlIn...),
		attrs:      args.Attrs,
		device:     args.Device,
		numOutputs: args.NumOutputs,
		graph:      g,
		Ctx:        args.Ctx,
	}
	if n.attrs == nil {
		n.attrs = map[string]any{}
	}
	g.nodes = append(g.nodes, n)
	g.byName[name] = n
	g.bumpVersion()
	return n, nil
}

// Nodes returns a snapshot of all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Node(nil), g.nodes...)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.nodes)
}

// ByName looks a node up by unique name.
func (g *Graph) ByName(name string) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.byName[name]
}

// Consumers returns, for every node output and control edge, the consuming
// nodes. The result maps producer node id -> consumers (data and control).
func (g *Graph) Consumers() map[int][]*Node {
	out := map[int][]*Node{}
	for _, n := range g.Nodes() {
		for _, in := range n.inputs {
			out[in.Node.id] = append(out[in.Node.id], n)
		}
		for _, c := range n.controlIn {
			out[c.id] = append(out[c.id], n)
		}
	}
	return out
}

// IsBackEdgeOp reports whether the op introduces graph cycles
// (NextIteration is the only one).
func IsBackEdgeOp(op string) bool { return op == "NextIteration" }

// TopoSort returns the nodes in a topological order, treating the inputs of
// NextIteration nodes as back edges (excluded from the dependency
// relation). It returns an error if a cycle remains — i.e. a cycle not
// passing through NextIteration, which is structurally invalid.
func (g *Graph) TopoSort() ([]*Node, error) {
	nodes := g.Nodes()
	indeg := make(map[int]int, len(nodes))
	succ := make(map[int][]*Node, len(nodes))
	for _, n := range nodes {
		if _, ok := indeg[n.id]; !ok {
			indeg[n.id] = 0
		}
		if IsBackEdgeOp(n.op) {
			continue // its inputs are back edges
		}
		seen := make(map[int]bool, len(n.inputs)+len(n.controlIn))
		for _, in := range n.inputs {
			if !seen[in.Node.id] {
				seen[in.Node.id] = true
				indeg[n.id]++
				succ[in.Node.id] = append(succ[in.Node.id], n)
			}
		}
		for _, c := range n.controlIn {
			if !seen[c.id] {
				seen[c.id] = true
				indeg[n.id]++
				succ[c.id] = append(succ[c.id], n)
			}
		}
	}
	var ready []*Node
	for _, n := range nodes {
		if indeg[n.id] == 0 {
			ready = append(ready, n)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].id < ready[j].id })
	var order []*Node
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, s := range succ[n.id] {
			indeg[s.id]--
			if indeg[s.id] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != len(nodes) {
		var stuck []string
		for _, n := range nodes {
			if indeg[n.id] > 0 {
				stuck = append(stuck, n.name)
			}
		}
		return nil, fmt.Errorf("graph: cycle not through NextIteration involving %v", stuck)
	}
	return order, nil
}

// DOT renders the graph in Graphviz format for debugging and docs.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph G {\n  rankdir=TB;\n")
	for _, n := range g.Nodes() {
		shape := "box"
		switch n.op {
		case "Switch", "Merge", "Enter", "Exit", "NextIteration":
			shape = "ellipse"
		case "Send", "Recv":
			shape = "hexagon"
		}
		label := fmt.Sprintf("%s\\n%s", n.name, n.op)
		if n.device != "" {
			label += "\\n@" + n.device
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\", shape=%s];\n", n.id, label, shape)
	}
	for _, n := range g.Nodes() {
		for _, in := range n.inputs {
			style := ""
			if IsBackEdgeOp(n.op) {
				style = " [style=dashed]"
			}
			fmt.Fprintf(&sb, "  n%d -> n%d%s;\n", in.Node.id, n.id, style)
		}
		for _, c := range n.controlIn {
			fmt.Fprintf(&sb, "  n%d -> n%d [style=dotted];\n", c.id, n.id)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Stats summarizes a graph for reporting (op histogram and counts), used by
// the CLI tools.
func (g *Graph) Stats() map[string]int {
	out := map[string]int{}
	for _, n := range g.Nodes() {
		out[n.op]++
	}
	return out
}
