// Package partition splits a placed dataflow graph into per-device
// subgraphs (§3, §4.4): cross-device data edges become Send/Recv pairs
// sharing a rendezvous key, and each device participating in a loop whose
// predicate it does not compute receives a control-loop state machine
// (Figure 6) that tells its Recv operations, iteration by iteration,
// whether to proceed or terminate. Deadness (§4.4) needs no extra
// machinery: a Send with a dead input publishes an is_dead signal, which
// the receiving executor propagates.
//
// Placement is unrestricted, as in the paper: any op may live on any
// device; conditional branches and loop bodies may span machines. The one
// structural restriction of this implementation is that a *nested* loop may
// not span devices (its enclosing loop may); the paper's evaluation does
// not exercise that case either.
package partition

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Result is the partitioning outcome.
type Result struct {
	// Parts maps device name to the nodes of its partition.
	Parts map[string][]*graph.Node
	// Devices lists partition names in first-seen order.
	Devices []string
}

// Place assigns every unplaced node to defaultDev.
func Place(g *graph.Graph, defaultDev string) {
	for _, n := range g.Nodes() {
		if n.Device() == "" {
			n.SetDevice(defaultDev)
		}
	}
}

// WorkerOf maps a device name to the worker (process) hosting it; used to
// route Send keys. Identity-ish mappings are fine for single-process runs.
type WorkerOf func(device string) string

// Partition rewrites the graph for distributed execution over the given
// node set (pass g.Nodes() for whole-graph execution) and returns the
// per-device partitions.
func Partition(g *graph.Graph, nodes []*graph.Node, workerOf WorkerOf) (*Result, error) {
	if workerOf == nil {
		workerOf = func(string) string { return "w0" }
	}
	inSet := map[int]bool{}
	for _, n := range nodes {
		inSet[n.ID()] = true
	}

	// 1. Replace cross-device data edges with Send/Recv pairs, one pair
	// per (source output, destination device).
	type pairKey struct {
		src graph.Output
		dst string
	}
	recvs := map[pairKey]*graph.Node{}
	var added []*graph.Node
	newRecvs := []*graph.Node{} // recvs needing loop control, with their source
	recvSrc := map[*graph.Node]graph.Output{}

	recvFor := func(in graph.Output, dstDev string) (*graph.Node, error) {
		pk := pairKey{src: in, dst: dstDev}
		if recv, ok := recvs[pk]; ok {
			return recv, nil
		}
		key := fmt.Sprintf("e=%s:%d;dstd=%s;dstw=%s", in.Node.Name(), in.Index, dstDev, workerOf(dstDev))
		send, err := g.AddNode(graph.NodeArgs{
			Op:     "Send",
			Name:   "send_" + in.Node.Name(),
			Inputs: []graph.Output{in},
			Attrs:  map[string]any{"key": key},
			Device: in.Node.Device(),
			Ctx:    in.Node.Ctx,
		})
		if err != nil {
			return nil, err
		}
		recv, err := g.AddNode(graph.NodeArgs{
			Op:         "Recv",
			Name:       "recv_" + in.Node.Name(),
			Attrs:      map[string]any{"key": key},
			Device:     dstDev,
			NumOutputs: 1,
			Ctx:        in.Node.Ctx,
		})
		if err != nil {
			return nil, err
		}
		recvs[pk] = recv
		added = append(added, send, recv)
		newRecvs = append(newRecvs, recv)
		recvSrc[recv] = in
		return recv, nil
	}

	for _, n := range nodes {
		for i, in := range n.Inputs() {
			if in.Node.Device() == n.Device() {
				continue
			}
			recv, err := recvFor(in, n.Device())
			if err != nil {
				return nil, err
			}
			n.ReplaceInput(i, recv.Out(0))
		}
		for _, c := range n.ControlInputs() {
			if c.Device() == n.Device() {
				continue
			}
			// Route the control edge through a data value: send the
			// control source's first output (its deadness mirrors the
			// control semantics) and depend on the Recv instead.
			if c.NumOutputs() == 0 {
				return nil, fmt.Errorf("partition: control edge %s -> %s crosses devices %q -> %q and %s has no data output to route",
					c.Name(), n.Name(), c.Device(), n.Device(), c.Name())
			}
			recv, err := recvFor(c.Out(0), n.Device())
			if err != nil {
				return nil, err
			}
			n.ReplaceControlInput(c, recv)
		}
	}

	// 2. Control loops (Figure 6): group loop-frame Recvs by (frame,
	// device); each non-driver device gets a state machine driven by the
	// loop predicate, and the driver sends the predicate to it.
	type frameDev struct {
		wc  *core.WhileContext
		dev string
	}
	ctlMerge := map[frameDev]*graph.Node{}
	for _, recv := range newRecvs {
		wc := valueFrame(recvSrc[recv])
		if wc == nil {
			continue // root-frame edge: Recv is a plain source
		}
		if _, nested := wc.Outer.(*core.WhileContext); nested || nestedInWhile(wc.Outer) {
			return nil, fmt.Errorf("partition: loop %q is nested and spans devices; nested cross-device loops are unsupported", wc.FrameName)
		}
		driverDev := wc.LoopCondNode.Device()
		dev := recv.Device()
		if dev == driverDev {
			// The driver's own frame machinery gates its Recvs.
			recv.AddControlInput(wc.Merges[0])
			continue
		}
		fd := frameDev{wc: wc, dev: dev}
		m, ok := ctlMerge[fd]
		if !ok {
			var err error
			m, err = buildControlLoop(g, wc, dev, workerOf, &added)
			if err != nil {
				return nil, err
			}
			ctlMerge[fd] = m
		}
		recv.AddControlInput(m)
	}

	// 3. Group nodes by device.
	res := &Result{Parts: map[string][]*graph.Node{}}
	appendNode := func(n *graph.Node) {
		dev := n.Device()
		if _, ok := res.Parts[dev]; !ok {
			res.Devices = append(res.Devices, dev)
		}
		res.Parts[dev] = append(res.Parts[dev], n)
	}
	for _, n := range nodes {
		appendNode(n)
	}
	for _, n := range added {
		appendNode(n)
	}
	return res, nil
}

// buildControlLoop constructs the Figure 6 state machine for frame wc on
// device dev and returns its Merge (the per-iteration trigger for Recvs).
func buildControlLoop(g *graph.Graph, wc *core.WhileContext, dev string, workerOf WorkerOf, added *[]*graph.Node) (*graph.Node, error) {
	// Driver side: send the loop predicate to dev each iteration.
	key := fmt.Sprintf("ctl=%s;dstd=%s;dstw=%s", wc.FrameName, dev, workerOf(dev))
	send, err := g.AddNode(graph.NodeArgs{
		Op:     "Send",
		Name:   "ctl_send_" + wc.FrameName,
		Inputs: []graph.Output{wc.LoopCondNode.Out(0)},
		Attrs:  map[string]any{"key": key},
		Device: wc.LoopCondNode.Device(),
		Ctx:    wc,
	})
	if err != nil {
		return nil, err
	}
	// Participant side: Enter(true) -> Merge -> Switch(pred) ->
	// NextIteration -> Merge.
	ctrue, err := g.AddNode(graph.NodeArgs{
		Op:         "Const",
		Name:       "ctl_true",
		Attrs:      map[string]any{"value": tensor.ScalarBool(true)},
		Device:     dev,
		NumOutputs: 1,
	})
	if err != nil {
		return nil, err
	}
	enter, err := g.AddNode(graph.NodeArgs{
		Op:     "Enter",
		Name:   "ctl_enter_" + wc.FrameName,
		Inputs: []graph.Output{ctrue.Out(0)},
		Attrs: map[string]any{
			"frame_name":          wc.FrameName,
			"parallel_iterations": wc.Parallel,
		},
		Device:     dev,
		NumOutputs: 1,
		Ctx:        wc,
	})
	if err != nil {
		return nil, err
	}
	merge, err := g.AddNode(graph.NodeArgs{
		Op:         "Merge",
		Name:       "ctl_merge_" + wc.FrameName,
		Inputs:     []graph.Output{enter.Out(0), enter.Out(0)},
		Device:     dev,
		NumOutputs: 1,
		Ctx:        wc,
	})
	if err != nil {
		return nil, err
	}
	predRecv, err := g.AddNode(graph.NodeArgs{
		Op:         "Recv",
		Name:       "ctl_recv_" + wc.FrameName,
		Attrs:      map[string]any{"key": key},
		Device:     dev,
		NumOutputs: 1,
		Ctx:        wc,
	})
	if err != nil {
		return nil, err
	}
	predRecv.AddControlInput(merge)
	sw, err := g.AddNode(graph.NodeArgs{
		Op:         "Switch",
		Name:       "ctl_switch_" + wc.FrameName,
		Inputs:     []graph.Output{merge.Out(0), predRecv.Out(0)},
		Device:     dev,
		NumOutputs: 2,
		Ctx:        wc,
	})
	if err != nil {
		return nil, err
	}
	ni, err := g.AddNode(graph.NodeArgs{
		Op:         "NextIteration",
		Name:       "ctl_next_" + wc.FrameName,
		Inputs:     []graph.Output{sw.Out(1)},
		Device:     dev,
		NumOutputs: 1,
		Ctx:        wc,
	})
	if err != nil {
		return nil, err
	}
	merge.ReplaceInput(1, ni.Out(0))
	*added = append(*added, send, ctrue, enter, merge, predRecv, sw, ni)
	return merge, nil
}

// valueFrame returns the while frame in which the value materializes (nil
// for the root frame): an Exit's output lives in its loop's parent frame;
// other loop machinery and loop-body values live in the loop frame.
func valueFrame(v graph.Output) *core.WhileContext {
	n := v.Node
	if c := core.ConstructOf(n); c != nil {
		if wc, ok := c.(*core.WhileContext); ok {
			if n.Op() == "Exit" {
				return core.WhileCtxOf(wc.Outer)
			}
			return wc
		}
		// Cond machinery: value lives wherever the cond lives.
		if cc, ok := c.(*core.CondContext); ok {
			return core.WhileCtxOf(cc.Outer)
		}
	}
	return core.WhileCtxOf(core.CtxOf(v))
}

// nestedInWhile reports whether ctx sits inside any while frame.
func nestedInWhile(ctx core.Context) bool { return core.WhileCtxOf(ctx) != nil }

// Validate checks a partition result: every node's inputs are within its
// device's partition (Send/Recv rewriting succeeded).
func Validate(res *Result) error {
	for dev, nodes := range res.Parts {
		in := map[int]bool{}
		for _, n := range nodes {
			in[n.ID()] = true
		}
		for _, n := range nodes {
			for i, e := range n.Inputs() {
				if !in[e.Node.ID()] {
					return fmt.Errorf("partition: %s input %d (%s) escapes partition %q", n.Name(), i, e, dev)
				}
			}
			for _, c := range n.ControlInputs() {
				if !in[c.ID()] {
					return fmt.Errorf("partition: %s control input %s escapes partition %q", n.Name(), c.Name(), dev)
				}
			}
		}
	}
	return nil
}

// ByWorker groups a partition result's devices by hosting worker (the unit
// the multi-process cluster runtime registers and routes by), preserving
// res.Devices first-seen order within groups and across the worker list.
func ByWorker(res *Result, workerOf WorkerOf) (map[string][]string, []string) {
	devs := map[string][]string{}
	var order []string
	for _, dev := range res.Devices {
		w := workerOf(dev)
		if _, ok := devs[w]; !ok {
			order = append(order, w)
		}
		devs[w] = append(devs[w], dev)
	}
	return devs, order
}
