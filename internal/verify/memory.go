// Static peak-memory estimation: a tensor liveness pass over verified
// graphs that bounds, per node, how many tensor bytes can be resident at
// the instant that node executes, and takes the maximum as the step's peak.
//
// The bound is for the *most parallel* execution the executor permits: an
// edge's value is counted live at node n unless it provably cannot coexist
// with n's execution — either its producer is a strict descendant of n
// (not yet produced) or every consumer is a strict ancestor of n (already
// consumed). Loop-frame values are multiplied by the frame's iteration
// window (parallel_iterations), because that many iterations' copies can
// be in flight at once. At the true peak instant some node is executing,
// so max-over-nodes of the per-node clique is a sound upper bound.
//
// Every shape comes from the same inference pass Check runs (infer.go): one
// fact per output port, computed to a bounded fixpoint over a lattice in
// which an absent fact is not reached yet, a zero one is unknown, and a
// join only widens. So a loop-carried value's shape is the join of every
// iteration's, and a tensor array's or stack's elements the join of every
// write. This file adds only liveness and cost.
//
// Unknown dimensions do not break the analysis: every cost splits into a
// statically known factor and symbolic factors — "rows" (the product of
// unknown dims, typically the batch size) and "iters" (loop trip count,
// for stack- and tensor-array-accumulated gradient state). The caller
// resolves the symbols with Bound(rows, iters).
//
// The pass never runs on the step path: it is invoked from dcfgraph
// -analyze and tests.
package verify

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// MemEstimate is the static peak-resident-bytes bound for one node set.
// The total bound is FixedBytes + rows·PerRowBytes + iters·PerIterBytes +
// rows·iters·PerRowIterBytes, where rows is the product of the graph's
// unknown (batch-like) dimensions and iters the loop trip count.
type MemEstimate struct {
	FixedBytes      int64 // statically known peak bytes
	PerRowBytes     int64 // coefficient of unknown-dimension product
	PerIterBytes    int64 // coefficient of loop trip count (stack/TA growth)
	PerRowIterBytes int64 // coefficient of rows·iters

	// StepBytes of FixedBytes are resident for the whole step regardless
	// of schedule: tensor-array element storage. They are included in
	// FixedBytes.
	StepBytes int64

	// PeakNode/PeakOp/PeakFrame identify the node whose live set attains
	// the (rows=1) maximum; Contributors lists that node's live edges,
	// largest first.
	PeakNode     string
	PeakOp       string
	PeakFrame    string
	Contributors []EdgeMem

	// Nodes is the per-node table in topological order.
	Nodes []NodeMem
}

// NodeMem is one row of the per-node residency table: the bytes that can
// be live at the instant this node executes (step-wide resources included).
type NodeMem struct {
	Node       string
	Op         string
	Frame      string
	Window     int   // iteration-window product of the node's frame chain
	FixedBytes int64 // known live bytes at this node
	PerRow     int64 // plus this per unknown-dim product ("row")
}

// EdgeMem is one live value contributing to a node's residency.
type EdgeMem struct {
	Edge   string // "node:port", or a resource label like "ta/name"
	Op     string
	Bytes  int64 // known bytes (already multiplied by Window)
	PerRow int64 // symbolic per-row bytes (already multiplied by Window)
	Window int
}

// Finite reports whether the bound is fully static: no symbolic per-row or
// per-iteration component survives shape inference.
func (m *MemEstimate) Finite() bool {
	return m.PerRowBytes == 0 && m.PerIterBytes == 0 && m.PerRowIterBytes == 0
}

func (m *MemEstimate) String() string {
	s := fmt.Sprintf("peak %d B", m.FixedBytes)
	if m.PerRowBytes > 0 {
		s += fmt.Sprintf(" + %d B/row", m.PerRowBytes)
	}
	if m.PerIterBytes > 0 {
		s += fmt.Sprintf(" + %d B/iter", m.PerIterBytes)
	}
	if m.PerRowIterBytes > 0 {
		s += fmt.Sprintf(" + %d B/(row·iter)", m.PerRowIterBytes)
	}
	return s
}

// EstimateMemory runs Check on one node set (opts selects it exactly as for
// Check) and the liveness analysis over the facts it inferred; a fetched
// value counts until its last consumer, like any other. A graph that fails
// structurally (a cycle outside NextIteration) returns a nil estimate with
// the diagnostics; Check's other diagnostics ride along without blocking
// estimation.
func EstimateMemory(g *graph.Graph, opts Options) (*MemEstimate, Diagnostics) {
	c, ok := check(g, opts)
	if !ok {
		return nil, c.diags
	}
	return (&memAnalyzer{c: c}).run(), c.diags
}

// cost is one value's memory footprint: fixed bytes plus symbolic factors.
type cost struct {
	bytes int64
	rows  bool // multiplied by the unknown-dimension product
}

// memAnalyzer carries the liveness computation for one node set.
type memAnalyzer struct {
	c *checker

	idx map[int]int // node id -> topo index
}

func (m *memAnalyzer) run() *MemEstimate {
	c := m.c
	m.idx = make(map[int]int, len(c.order))
	for i, n := range c.order {
		m.idx[n.ID()] = i
	}

	// Strict-ancestor bitsets over the topo order, back edges excluded
	// (the same edge relation topoNodes used).
	anc := make([]bitset, len(c.order))
	for i, n := range c.order {
		b := newBitset(len(c.order))
		if !graph.IsBackEdgeOp(n.Op()) {
			for _, in := range n.InputsRef() {
				if j, ok := m.idx[in.Node.ID()]; ok {
					b.set(j)
					b.or(anc[j])
				}
			}
			for _, ctl := range n.ControlInputsRef() {
				if j, ok := m.idx[ctl.ID()]; ok {
					b.set(j)
					b.or(anc[j])
				}
			}
		}
		anc[i] = b
	}

	// Edge list: every produced output with its consumer set.
	type edge struct {
		out       graph.Output
		cost      cost
		window    int64
		producer  int   // topo index
		consumers []int // topo indices, deduped
	}
	var edges []edge
	consumersOf := map[graph.Output]map[int]bool{}
	for _, n := range c.order {
		i := m.idx[n.ID()]
		for _, in := range n.InputsRef() {
			if _, ok := m.idx[in.Node.ID()]; !ok {
				continue
			}
			set := consumersOf[in]
			if set == nil {
				set = map[int]bool{}
				consumersOf[in] = set
			}
			set[i] = true
		}
	}
	for _, n := range c.order {
		i := m.idx[n.ID()]
		for port := 0; port < n.NumOutputs(); port++ {
			out := graph.Output{Node: n, Index: port}
			co := m.costOf(out)
			if co.bytes == 0 && !co.rows {
				continue // resources, untracked flow scalars rounded to 0
			}
			var cons []int
			for j := range consumersOf[out] {
				cons = append(cons, j)
			}
			sort.Ints(cons)
			edges = append(edges, edge{
				out: out, cost: co, window: m.windowProd(n),
				producer: i, consumers: cons,
			})
		}
	}

	// Step-wide resources: tensor-array element storage (count × elem) and
	// stack growth (bytes per push per iteration).
	var stepFixed, stepPerRow, stepPerIter, stepPerRowIter int64
	var stepContribs []EdgeMem
	taIDs := make([]string, 0, len(c.counts))
	for id := range c.counts {
		taIDs = append(taIDs, id)
	}
	sort.Strings(taIDs)
	for _, id := range taIDs {
		count := int64(c.counts[id])
		ec := elemCost(c.elems[id])
		em := EdgeMem{Edge: id, Op: "TensorArray", Window: 1}
		switch {
		case count >= 0 && !ec.rows:
			stepFixed += count * ec.bytes
			em.Bytes = count * ec.bytes
		case count >= 0:
			stepPerRow += count * ec.bytes
			em.PerRow = count * ec.bytes
		case !ec.rows:
			stepPerIter += ec.bytes
		default:
			stepPerRowIter += ec.bytes
		}
		if em.Bytes > 0 || em.PerRow > 0 {
			stepContribs = append(stepContribs, em)
		}
	}
	for _, n := range c.order {
		if n.Op() != "StackPush" {
			continue
		}
		vc := m.costOf(graph.Output{Node: n, Index: 0}) // out0 echoes the pushed value
		if vc.rows {
			stepPerRowIter += vc.bytes
		} else {
			stepPerIter += vc.bytes
		}
	}

	// Per-node residency: for each node, sum the edges live at it.
	est := &MemEstimate{
		StepBytes:       stepFixed,
		PerIterBytes:    stepPerIter,
		PerRowIterBytes: stepPerRowIter,
	}
	var peakFixed, peakRow int64
	peakIdx := -1
	est.Nodes = make([]NodeMem, len(c.order))
	for i, n := range c.order {
		var fixed, perRow int64
		for _, e := range edges {
			if !m.liveAt(e.producer, e.consumers, i, anc) {
				continue
			}
			b := e.cost.bytes * e.window
			if e.cost.rows {
				perRow += b
			} else {
				fixed += b
			}
		}
		fixed += stepFixed
		perRow += stepPerRow
		nm := NodeMem{
			Node: n.Name(), Op: n.Op(), Window: int(m.windowProd(n)),
			FixedBytes: fixed, PerRow: perRow,
		}
		if f := c.frameOf[n.ID()]; f != nil {
			nm.Frame = f.name
		}
		est.Nodes[i] = nm
		if fixed+perRow > peakFixed+peakRow || peakIdx < 0 {
			peakFixed, peakRow, peakIdx = fixed, perRow, i
		}
	}
	// Sound peak: componentwise max (≥ max of any rows-weighted sum).
	for _, nm := range est.Nodes {
		if nm.FixedBytes > est.FixedBytes {
			est.FixedBytes = nm.FixedBytes
		}
		if nm.PerRow > est.PerRowBytes {
			est.PerRowBytes = nm.PerRow
		}
	}
	if peakIdx >= 0 {
		pn := c.order[peakIdx]
		est.PeakNode, est.PeakOp = pn.Name(), pn.Op()
		if f := c.frameOf[pn.ID()]; f != nil {
			est.PeakFrame = f.name
		}
		for _, e := range edges {
			if !m.liveAt(e.producer, e.consumers, peakIdx, anc) {
				continue
			}
			em := EdgeMem{
				Edge: e.out.String(), Op: e.out.Node.Op(), Window: int(e.window),
			}
			if e.cost.rows {
				em.PerRow = e.cost.bytes * e.window
			} else {
				em.Bytes = e.cost.bytes * e.window
			}
			est.Contributors = append(est.Contributors, em)
		}
		est.Contributors = append(est.Contributors, stepContribs...)
		sort.SliceStable(est.Contributors, func(a, b int) bool {
			x, y := est.Contributors[a], est.Contributors[b]
			if x.Bytes+x.PerRow != y.Bytes+y.PerRow {
				return x.Bytes+x.PerRow > y.Bytes+y.PerRow
			}
			return x.Edge < y.Edge
		})
	}
	return est
}

// liveAt decides whether the edge produced at topo index p with the given
// consumer indices can be resident while node n executes.
func (m *memAnalyzer) liveAt(p int, consumers []int, n int, anc []bitset) bool {
	if p == n {
		return true // being produced right now
	}
	if anc[p].has(n) {
		return false // producer strictly after n: not yet produced
	}
	if len(consumers) == 0 {
		return false // dropped immediately after production
	}
	for _, ci := range consumers {
		if ci == n || !anc[n].has(ci) {
			return true // some consumer has not provably finished
		}
	}
	return false
}

// windowProd is the product of iteration windows along the node's frame
// chain: how many copies of a per-iteration value can be in flight. A frame
// whose Enters declare no window runs at the executor's default.
func (m *memAnalyzer) windowProd(n *graph.Node) int64 {
	prod := int64(1)
	f := m.c.frameOf[n.ID()]
	for limit := len(m.c.nodes) + 2; f != nil && limit > 0; limit-- {
		w := 0
		for _, e := range f.enters {
			if p := e.AttrInt("parallel_iterations"); p > w {
				w = p
			}
		}
		if w <= 0 {
			w = exec.DefaultParallelIterations
		}
		prod *= int64(w)
		f = f.parent
	}
	return prod
}

// elemCost turns a fact into a cost: fully known shapes are fixed
// bytes; unknown dims contribute their known-dim product as a per-row
// coefficient; unknown rank costs one element per row. An element is 8
// bytes (the widest pooled one, and what an unknown dtype assumes) or 1 for
// a bool.
func elemCost(t ops.Fact) cost {
	eb := int64(8)
	if t.DTypeOK && t.DType == tensor.Bool {
		eb = 1
	}
	if !t.RankOK {
		return cost{bytes: eb, rows: true}
	}
	prod, rows := int64(1), false
	for _, d := range t.Shape {
		if d < 0 {
			rows = true
		} else {
			prod *= int64(d)
		}
	}
	return cost{bytes: prod * eb, rows: rows}
}

// costOf is the footprint of one output port. Resource handles cost
// nothing; everything else costs its inferred shape.
func (m *memAnalyzer) costOf(out graph.Output) cost {
	f, _ := m.c.fact(out)
	if f.Res != "" {
		return cost{}
	}
	return elemCost(f)
}

// --- small dense bitset ---------------------------------------------------

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) or(o bitset) {
	for i := range o {
		b[i] |= o[i]
	}
}
