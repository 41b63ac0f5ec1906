// Package verify statically checks dataflow graphs before they reach an
// executor. The dynamic control-flow primitives (Switch, Merge, Enter, Exit,
// NextIteration) and the partition-time communication ops (Send, Recv) have
// strict well-formedness rules; a graph that violates them does not fail
// cleanly at step time — it hangs an executor, deadlocks a rendezvous, or
// fetches the wrong value. This package finds those violations at plan
// compile, graph registration, and partitioning, and reports them
// as collected diagnostics (never first-error-only), each naming the node,
// op, port, and frame involved.
//
// The checks, in the order they run:
//
//   - structure: ops exist in the registry, input/output arities match,
//     input ports are valid, every cycle passes through NextIteration
//   - frames: Enter nodes carry a frame name, frame nesting forms a tree,
//     NextIteration back edges stay within their frame, Exit leaves one,
//     and (whole programs only) every frame has a firable Exit
//   - liveness: a can-fire fixpoint over the dataflow relation finds Merge
//     inputs that can never produce a token
//   - types: dtype inference and shape propagation along edges, with
//     -1/unknown joins; only definite conflicts are reported (see infer.go)
//   - communication: Send/Recv rendezvous keys pair exactly once in a
//     complete program, never collide in a partial one, and the
//     cross-partition dependency relation is acyclic (see sendrecv.go)
//
// See README.md in this directory for how the boundaries use it.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/ops"
)

// Diagnostic is one verification finding. Port is the input port the finding
// refers to (-1 when the finding is about the node as a whole); Frame is the
// control-flow frame the node lives in ("" for the root frame).
type Diagnostic struct {
	Node  string
	Op    string
	Port  int
	Frame string
	Code  string
	Msg   string
}

// Error formats the diagnostic with every locating detail present.
func (d Diagnostic) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify[%s]: node %q (%s", d.Code, d.Node, d.Op)
	if d.Frame != "" {
		fmt.Fprintf(&sb, ", frame %q", d.Frame)
	}
	if d.Port >= 0 {
		fmt.Fprintf(&sb, ", port %d", d.Port)
	}
	sb.WriteString("): ")
	sb.WriteString(d.Msg)
	return sb.String()
}

// Diagnostics is the collected findings of one Check run. It implements
// error so boundaries can return it directly.
type Diagnostics []Diagnostic

// Error joins the findings, one per line, capping very long lists.
func (ds Diagnostics) Error() string {
	const max = 20
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph verification failed (%d finding(s)):", len(ds))
	for i, d := range ds {
		if i == max {
			fmt.Fprintf(&sb, "\n  ... and %d more", len(ds)-max)
			break
		}
		sb.WriteString("\n  ")
		sb.WriteString(d.Error())
	}
	return sb.String()
}

// Err returns the diagnostics as an error, or nil when there are none
// (a typed nil Diagnostics inside an error interface would read as non-nil).
func (ds Diagnostics) Err() error {
	if len(ds) == 0 {
		return nil
	}
	return ds
}

// Options configures one Check run.
type Options struct {
	// Nodes restricts checking to a subset of the graph (a pruned run
	// subgraph, or one worker's partition slice). nil checks every node.
	// The subset must be closed under data and control edges.
	Nodes []*graph.Node

	// Complete marks the node set as a whole program: every frame must
	// have a firable Exit and every Send/Recv key must pair within the
	// set. A single worker's slice of a partitioned program sets it false
	// — its frames may be headless control loops (no Exit) and its
	// Send/Recv peers live on other workers.
	Complete bool
}

// Check runs every verification pass and returns the collected diagnostics
// (empty when the graph is well-formed). Use Diagnostics.Err to convert the
// result to an error.
func Check(g *graph.Graph, opts Options) Diagnostics {
	c, _ := check(g, opts)
	return c.diags
}

// check runs every pass and returns the checker, whose facts EstimateMemory
// reads; false when the node set has no topological order, so nothing past
// the structure was checked.
func check(g *graph.Graph, opts Options) (*checker, bool) {
	nodes := opts.Nodes
	if nodes == nil {
		nodes = g.Nodes()
	}
	c := &checker{g: g, nodes: nodes, opts: opts}
	c.checkStructure()
	order, ok := c.topo()
	if !ok {
		// Everything below needs a topological order; the cycle diagnostic
		// has already been recorded.
		sortDiags(c.diags)
		return c, false
	}
	c.order = order
	c.assignFrames()
	c.checkFrames()
	c.checkLiveness()
	c.inferTypes()
	c.checkSendRecv()
	sortDiags(c.diags)
	return c, true
}

// sortDiags pins the diagnostic order to (node, port, code, message) so
// repeated runs — and CI failure diffs — are stable regardless of pass
// order or map iteration. The sort is stable, so diagnostics that tie on
// every key keep their discovery order.
func sortDiags(ds Diagnostics) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// checker carries the state of one Check run.
type checker struct {
	g     *graph.Graph
	nodes []*graph.Node
	opts  Options
	diags Diagnostics

	// order is a topological order of nodes with NextIteration inputs
	// treated as back edges.
	order []*graph.Node
	// inSet maps node id -> membership in the checked set.
	inSet map[int]bool
	// frames maps node id -> frame (nil = root).
	frameOf map[int]*frameInfo
	byName  map[string]*frameInfo

	// Inference state (see infer.go): what is known about every node
	// reached, by node id; the joined element type of every tensor array,
	// stack and variable ("var/<name>"); every tensor array's element count.
	facts  []nodeFacts
	elems  map[string]ops.Fact
	counts map[string]int
	// out holds the outputs of the node being inferred until run publishes
	// them; ictx is what its op's rule sees, cur the node it reports on.
	// readsRes records that it read resource state. tick counts runs;
	// resAt is the tick of the last change to resource state. changed
	// records that a sweep moved a fact, waited that a node waited on one
	// not reached; closed reads what is not reached as unknown.
	out             []ops.Fact
	ictx            ops.InferCtx
	cur             *graph.Node
	readsRes        bool
	tick, resAt     int32
	changed, waited bool
	closed          bool
}

// frameInfo is one control-flow frame discovered from Enter structure.
type frameInfo struct {
	name   string
	parent *frameInfo // nil = root
	enters []*graph.Node
	exits  []*graph.Node
}

func (c *checker) addf(n *graph.Node, port int, code, format string, args ...any) {
	frame := ""
	if n != nil {
		if f := c.frameOf[n.ID()]; f != nil {
			frame = f.name
		}
	}
	d := Diagnostic{Port: port, Frame: frame, Code: code, Msg: fmt.Sprintf(format, args...)}
	if n != nil {
		d.Node, d.Op = n.Name(), n.Op()
	}
	c.diags = append(c.diags, d)
}

// checkStructure verifies registry membership, arities, and port validity.
func (c *checker) checkStructure() {
	c.inSet = make(map[int]bool, len(c.nodes))
	for _, n := range c.nodes {
		c.inSet[n.ID()] = true
	}
	for _, n := range c.nodes {
		def, err := ops.Get(n.Op())
		if err != nil {
			c.addf(n, -1, "unknown-op", "op %q is not registered", n.Op())
		} else {
			if def.VariableOutputs == nil && def.NumOutputs != n.NumOutputs() {
				c.addf(n, -1, "output-arity", "node declares %d outputs but op %q has %d",
					n.NumOutputs(), n.Op(), def.NumOutputs)
			}
			if got := n.NumInputs(); !def.Inputs.Allows(got) {
				c.addf(n, -1, "input-arity", "op %q takes %s data input(s), got %d", n.Op(), def.Inputs, got)
			}
		}
		for i, in := range n.InputsRef() {
			if !in.Valid() {
				c.addf(n, i, "invalid-port", "input references invalid port %v", in)
				continue
			}
			if !c.inSet[in.Node.ID()] {
				c.addf(n, i, "edge-escape", "input %s is outside the checked node set", in)
			}
		}
		for i, ctl := range n.ControlInputsRef() {
			if !c.inSet[ctl.ID()] {
				c.addf(n, -1, "edge-escape", "control input %d (%s) is outside the checked node set", i, ctl.Name())
			}
		}
	}
}

// topo orders the checked nodes topologically, treating NextIteration data
// inputs as back edges; a remaining cycle is structurally invalid (only
// while-loops may create cycles, and only through NextIteration).
func (c *checker) topo() ([]*graph.Node, bool) {
	order, stuck := topoNodes(c.nodes, nil)
	if len(stuck) > 0 {
		for _, n := range stuck {
			c.addf(n, -1, "cycle", "node is on a cycle that does not pass through NextIteration")
		}
		return nil, false
	}
	return order, true
}

// topoNodes is the shared Kahn's-algorithm core: it orders the closed node
// set treating NextIteration inputs as back edges, with extra (from, to)
// edges injected (the cross-partition checker links Send->Recv). It returns
// the order and the nodes left on cycles.
func topoNodes(nodes []*graph.Node, extra map[int][]*graph.Node) (order, stuck []*graph.Node) {
	pos := make(map[int]int, len(nodes))
	for i, n := range nodes {
		pos[n.ID()] = i
	}
	indeg := make([]int, len(nodes))
	succ := make([][]int, len(nodes))
	addEdge := func(srcID int, dst int, seen map[int]bool) {
		j, ok := pos[srcID]
		if !ok || seen[j] {
			return // escaping edges were already diagnosed
		}
		seen[j] = true
		indeg[dst]++
		succ[j] = append(succ[j], dst)
	}
	for i, n := range nodes {
		seen := map[int]bool{}
		if !graph.IsBackEdgeOp(n.Op()) {
			for _, in := range n.InputsRef() {
				addEdge(in.Node.ID(), i, seen)
			}
			for _, ctl := range n.ControlInputsRef() {
				addEdge(ctl.ID(), i, seen)
			}
		}
		for _, src := range extra[n.ID()] {
			addEdge(src.ID(), i, seen)
		}
	}
	var ready []int
	for i := range nodes {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
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
		for i, n := range nodes {
			if indeg[i] > 0 {
				stuck = append(stuck, n)
			}
		}
		return order, stuck
	}
	return order, nil
}

// assignFrames derives each node's control-flow frame from Enter/Exit
// structure: Enter moves into the frame named by its attribute, Exit moves
// back to the parent, NextIteration adopts the frame of its consuming Merge,
// and every other node lives in the deepest frame among its inputs (root
// inputs mix freely — loop-invariant captures are legal).
func (c *checker) assignFrames() {
	c.frameOf = make(map[int]*frameInfo, len(c.nodes))
	c.byName = map[string]*frameInfo{}
	depth := func(f *frameInfo) int {
		d := 0
		// Cap the walk: a malformed graph can wire frames into a parent
		// cycle, which is diagnosed elsewhere but must not hang us here.
		for limit := len(c.nodes) + 2; f != nil && limit > 0; limit-- {
			d++
			f = f.parent
		}
		return d
	}
	for _, n := range c.order {
		switch n.Op() {
		case "Enter":
			name := n.AttrString("frame_name")
			if name == "" {
				c.addf(n, -1, "enter-no-frame", "Enter has no frame_name attribute")
				continue
			}
			var parent *frameInfo
			if len(n.InputsRef()) > 0 {
				parent = c.frameOf[n.InputsRef()[0].Node.ID()]
			}
			f, ok := c.byName[name]
			if !ok {
				f = &frameInfo{name: name, parent: parent}
				c.byName[name] = f
			} else if f.parent != parent {
				// Partition control loops legitimately re-enter an existing
				// frame from the root (their Enter feeds off a local
				// constant), so a root/non-root disagreement resolves to
				// the deeper parent; two distinct non-root parents mean the
				// nesting is genuinely not a tree.
				switch {
				case parent == nil:
					// keep the established (deeper) parent
				case f.parent == nil:
					f.parent = parent
				default:
					c.addf(n, 0, "frame-nesting", "frame %q entered from frame %q but previously from frame %q: frame nesting must form a tree",
						name, parent.name, f.parent.name)
				}
			}
			f.enters = append(f.enters, n)
			c.frameOf[n.ID()] = f
		case "Exit":
			in := n.InputsRef()
			if len(in) == 0 {
				continue // arity diagnostic already recorded
			}
			f := c.frameOf[in[0].Node.ID()]
			if f == nil {
				c.addf(n, 0, "exit-outside-frame", "Exit input %s is in the root frame; Exit must leave a loop frame", in[0])
				continue
			}
			f.exits = append(f.exits, n)
			c.frameOf[n.ID()] = f.parent
		case "NextIteration":
			// Assigned from its consuming Merge in checkFrames (its input
			// is a back edge, so it may precede the producer here).
		default:
			var best *frameInfo
			conflict := false
			consider := func(f *frameInfo) {
				if f == nil {
					return
				}
				if best == nil {
					best = f
					return
				}
				if best == f {
					return
				}
				// Keep the deeper frame; two unrelated frames are a conflict.
				db, df := depth(best), depth(f)
				if df > db {
					best = f
				} else if df == db {
					conflict = true
				}
			}
			for _, in := range n.InputsRef() {
				consider(c.frameOf[in.Node.ID()])
			}
			for _, ctl := range n.ControlInputsRef() {
				consider(c.frameOf[ctl.ID()])
			}
			if conflict {
				c.addf(n, -1, "frame-mix", "inputs come from sibling frames; values may only cross frames through Enter/Exit")
			}
			if best != nil {
				c.frameOf[n.ID()] = best
			}
		}
	}
}

// checkFrames validates the per-frame rules that depend on the completed
// frame assignment.
func (c *checker) checkFrames() {
	// NextIteration adopts the frame of its consuming Merges, which must
	// agree; the back edge must not escape its frame.
	consumers := map[int][]*graph.Node{} // NextIteration id -> consuming nodes
	for _, n := range c.nodes {
		for _, in := range n.InputsRef() {
			if in.Node.Op() == "NextIteration" {
				consumers[in.Node.ID()] = append(consumers[in.Node.ID()], n)
			}
		}
	}
	for _, n := range c.nodes {
		if n.Op() != "NextIteration" {
			continue
		}
		var frame *frameInfo
		for _, consumer := range consumers[n.ID()] {
			if consumer.Op() != "Merge" {
				c.addf(n, -1, "ni-consumer", "NextIteration output feeds %q (%s); only Merge may consume a back edge",
					consumer.Name(), consumer.Op())
				continue
			}
			f := c.frameOf[consumer.ID()]
			if frame == nil {
				frame = f
			} else if f != nil && f != frame {
				c.addf(n, -1, "ni-frame", "NextIteration feeds Merges in different frames (%q and %q)",
					frame.name, f.name)
			}
		}
		if frame == nil {
			continue // dangling NextIteration surfaces through liveness
		}
		c.frameOf[n.ID()] = frame
		if in := n.InputsRef(); len(in) > 0 {
			if inf := c.frameOf[in[0].Node.ID()]; inf != frame {
				from := "the root frame"
				if inf != nil {
					from = fmt.Sprintf("frame %q", inf.name)
				}
				c.addf(n, 0, "ni-frame-escape", "back edge from %s crosses out of frame %q; NextIteration must stay within its frame",
					from, frame.name)
			}
		}
	}
	// A complete program's frames must each have an Exit: a loop no value
	// ever leaves can still run, but nothing downstream can observe it and
	// the executor can never retire it cleanly. Partial node sets skip this
	// — partition control loops are headless by construction.
	if c.opts.Complete {
		for _, f := range c.byName {
			if len(f.exits) == 0 {
				c.addf(f.enters[0], -1, "frame-no-exit", "frame %q has %d Enter(s) but no reachable Exit", f.name, len(f.enters))
			}
		}
	}
}

// checkLiveness runs the can-fire fixpoint: a node can fire if its inputs
// can ever deliver tokens (Merge needs any one data input; NextIteration
// propagates within the loop; Recv tokens arrive from outside the analyzed
// set). A Merge input that can never fire means the graph wired a dead
// branch into a loop.
func (c *checker) checkLiveness() {
	fire := make(map[int]bool, len(c.nodes))
	for changed := true; changed; {
		changed = false
		for _, n := range c.order {
			if fire[n.ID()] {
				continue
			}
			ok := true
			for _, ctl := range n.ControlInputsRef() {
				if !fire[ctl.ID()] {
					ok = false
					break
				}
			}
			if ok {
				switch n.Op() {
				case "Merge":
					any := false
					for _, in := range n.InputsRef() {
						if fire[in.Node.ID()] {
							any = true
							break
						}
					}
					ok = any
				case "Recv":
					// Tokens arrive through the rendezvous; pairing is
					// checked separately.
				default:
					for _, in := range n.InputsRef() {
						if !fire[in.Node.ID()] {
							ok = false
							break
						}
					}
				}
			}
			if ok {
				fire[n.ID()] = true
				changed = true
			}
		}
	}
	for _, n := range c.nodes {
		if n.Op() != "Merge" {
			continue
		}
		for i, in := range n.InputsRef() {
			if !fire[in.Node.ID()] {
				c.addf(n, i, "merge-dead-input", "input %s can never produce a token", in)
			}
		}
	}
}
