package core

import (
	"fmt"

	"repro/internal/graph"
)

// WhileOpts configures a while-loop.
type WhileOpts struct {
	// Name labels the loop frame (uniquified); defaults to "while".
	Name string
	// ParallelIterations is the loop's window (§4.3): how many of its
	// iterations may be in flight at once. It is written as
	// parallel_iterations on the loop's Enters and is the only way to set
	// the window; 0 means exec.DefaultParallelIterations (32).
	ParallelIterations int
}

// While builds a while-loop (§4.2, Figure 4):
//
//	vars = inits
//	while pred(vars):
//	    vars = body(vars)
//	return vars
//
// pred and body receive the loop variables inside the loop frame; external
// values they touch are captured automatically as loop constants. The
// returned outputs are the Exit values in the enclosing context.
func (b *Builder) While(inits []graph.Output, pred func(vars []graph.Output) graph.Output, body func(vars []graph.Output) []graph.Output, opts WhileOpts) []graph.Output {
	outs, _ := b.WhileCtx(inits, pred, body, opts)
	return outs
}

// WhileCtx is While, additionally returning the loop's context record
// (consumed by autodiff and by tests).
func (b *Builder) WhileCtx(inits []graph.Output, pred func(vars []graph.Output) graph.Output, body func(vars []graph.Output) []graph.Output, opts WhileOpts) ([]graph.Output, *WhileContext) {
	if b.err != nil {
		return nil, nil
	}
	if len(inits) == 0 {
		b.fail("core: While requires at least one loop variable")
		return nil, nil
	}
	name := opts.Name
	if name == "" {
		name = "while"
	}
	// Uniquify the frame name via a marker node name (frames must be
	// unique per graph for executor child-frame keying).
	marker := b.OpNode("NoOp", name+"/frame", nil)
	if marker == nil {
		return nil, nil
	}
	frameName := marker.Name()

	outer := b.ctx
	wc := &WhileContext{
		Outer:       outer,
		FrameName:   frameName,
		Parallel:    opts.ParallelIterations,
		ConstEnters: map[graph.Output]graph.Output{},
	}

	// Capture inits in the OUTER context, then Enter each into the frame.
	enterAttrs := func() map[string]any {
		return map[string]any{
			"frame_name":          frameName,
			"parallel_iterations": opts.ParallelIterations,
		}
	}
	for i, init := range inits {
		ext, err := b.capture(outer, init)
		if err != nil {
			b.fail("core: While init %d: %v", i, err)
			return nil, nil
		}
		wc.Inits = append(wc.Inits, ext)
		enter, err := b.rawOp("Enter", fmt.Sprintf("%s/enter_%d", frameName, i), wc, enterAttrs(), ext)
		if err != nil {
			b.fail("core: %v", err)
			return nil, nil
		}
		wc.Enters = append(wc.Enters, enter)
	}

	// Merges: second input temporarily self-referential, patched to the
	// NextIteration below.
	for i, e := range wc.Enters {
		m, err := b.rawOp("Merge", fmt.Sprintf("%s/merge_%d", frameName, i), wc, nil, e.Out(0), e.Out(0))
		if err != nil {
			b.fail("core: %v", err)
			return nil, nil
		}
		wc.Merges = append(wc.Merges, m)
	}

	// Predicate subgraph.
	wc.phase = 0
	wc.predPivot = wc.Merges[0]
	b.pushCtx(wc)
	mergeOuts := make([]graph.Output, len(wc.Merges))
	for i, m := range wc.Merges {
		mergeOuts[i] = m.Out(0)
	}
	p := pred(mergeOuts)
	if b.err != nil {
		b.popCtx()
		return nil, nil
	}
	pc, err := b.capture(wc, p)
	if err != nil {
		b.popCtx()
		b.fail("core: While pred: %v", err)
		return nil, nil
	}
	lc, err := b.rawOp("LoopCond", frameName+"/cond", wc, nil, pc)
	if err != nil {
		b.popCtx()
		b.fail("core: %v", err)
		return nil, nil
	}
	wc.LoopCondNode = lc

	// Switches per loop variable.
	for i, m := range wc.Merges {
		sw, err := b.rawOp("Switch", fmt.Sprintf("%s/switch_%d", frameName, i), wc, nil, m.Out(0), lc.Out(0))
		if err != nil {
			b.popCtx()
			b.fail("core: %v", err)
			return nil, nil
		}
		wc.Switches = append(wc.Switches, sw)
	}

	// Body subgraph, fed by the true sides.
	wc.phase = 1
	bp, err := b.rawOp("Identity", frameName+"/pivot", wc, nil, wc.Switches[0].Out(1))
	if err != nil {
		b.popCtx()
		b.fail("core: %v", err)
		return nil, nil
	}
	wc.bodyPivotN = bp
	wc.BodyPivotOut = bp.Out(0)
	bodyIns := make([]graph.Output, len(wc.Switches))
	for i, sw := range wc.Switches {
		if i == 0 {
			bodyIns[i] = bp.Out(0)
		} else {
			bodyIns[i] = sw.Out(1)
		}
	}
	bodyOuts := body(bodyIns)
	if b.err != nil {
		b.popCtx()
		return nil, nil
	}
	if len(bodyOuts) != len(inits) {
		b.popCtx()
		b.fail("core: While body returned %d values for %d loop variables", len(bodyOuts), len(inits))
		return nil, nil
	}
	for i, bo := range bodyOuts {
		boc, err := b.capture(wc, bo)
		if err != nil {
			b.popCtx()
			b.fail("core: While body output %d: %v", i, err)
			return nil, nil
		}
		if loopInvariant([]graph.Output{boc}) {
			// A loop constant handed straight to NextIteration would
			// start an iteration the predicate ended; the Identity
			// waits for the pivot.
			boc = b.Op("Identity", nil, boc)
		}
		wc.BodyOuts = append(wc.BodyOuts, boc)
		ni, err := b.rawOp("NextIteration", fmt.Sprintf("%s/next_%d", frameName, i), wc, nil, boc)
		if err != nil {
			b.popCtx()
			b.fail("core: %v", err)
			return nil, nil
		}
		wc.NextIters = append(wc.NextIters, ni)
		wc.Merges[i].ReplaceInput(1, ni.Out(0))
	}
	b.popCtx()

	// Exits, living in the outer context.
	outs := make([]graph.Output, len(inits))
	for i, sw := range wc.Switches {
		e, err := b.rawOp("Exit", fmt.Sprintf("%s/exit_%d", frameName, i), outer, nil, sw.Out(0))
		if err != nil {
			b.fail("core: %v", err)
			return nil, nil
		}
		wc.Exits = append(wc.Exits, e)
		outs[i] = e.Out(0)
	}
	tagWhileMachinery(wc)
	return outs, wc
}

// tagWhileMachinery marks every loop-machinery node with its construct for
// autodiff unit grouping.
func tagWhileMachinery(wc *WhileContext) {
	for _, ns := range [][]*graph.Node{wc.Enters, wc.Merges, wc.Switches, wc.NextIters, wc.Exits} {
		for _, n := range ns {
			TagConstruct(n, wc)
		}
	}
	TagConstruct(wc.LoopCondNode, wc)
}

// AddLoopVar threads a new loop variable through an already-built while
// loop: init enters the frame, merges with the NextIteration of the value
// nextFn produces from the merged value each iteration, and exits. It
// returns (bodyValue, exitValue) where bodyValue is the Switch true side
// visible to per-iteration logic. This is the mechanism autodiff uses to
// augment forward loops with counters and state-saving token chains (§5.1).
func (b *Builder) AddLoopVar(wc *WhileContext, init graph.Output, nextFn func(cur graph.Output) graph.Output) (body, exit graph.Output) {
	if b.err != nil {
		return graph.Output{}, graph.Output{}
	}
	ext, err := b.capture(wc.Outer, init)
	if err != nil {
		b.fail("core: AddLoopVar init: %v", err)
		return graph.Output{}, graph.Output{}
	}
	idx := len(wc.Enters)
	enter, err := b.rawOp("Enter", fmt.Sprintf("%s/enter_%d", wc.FrameName, idx), wc, map[string]any{
		"frame_name":          wc.FrameName,
		"parallel_iterations": wc.Parallel,
	}, ext)
	if err != nil {
		b.fail("core: %v", err)
		return graph.Output{}, graph.Output{}
	}
	m, err := b.rawOp("Merge", fmt.Sprintf("%s/merge_%d", wc.FrameName, idx), wc, nil, enter.Out(0), enter.Out(0))
	if err != nil {
		b.fail("core: %v", err)
		return graph.Output{}, graph.Output{}
	}
	sw, err := b.rawOp("Switch", fmt.Sprintf("%s/switch_%d", wc.FrameName, idx), wc, nil, m.Out(0), wc.LoopCondNode.Out(0))
	if err != nil {
		b.fail("core: %v", err)
		return graph.Output{}, graph.Output{}
	}
	// Build the per-iteration update inside the while context.
	saved := b.ctx
	b.ctx = wc
	wc.phase = 1
	nxt := nextFn(sw.Out(1))
	b.ctx = saved
	if b.err != nil {
		return graph.Output{}, graph.Output{}
	}
	nxtC, err := b.capture(wc, nxt)
	if err != nil {
		b.fail("core: AddLoopVar next: %v", err)
		return graph.Output{}, graph.Output{}
	}
	ni, err := b.rawOp("NextIteration", fmt.Sprintf("%s/next_%d", wc.FrameName, idx), wc, nil, nxtC)
	if err != nil {
		b.fail("core: %v", err)
		return graph.Output{}, graph.Output{}
	}
	m.ReplaceInput(1, ni.Out(0))
	e, err := b.rawOp("Exit", fmt.Sprintf("%s/exit_%d", wc.FrameName, idx), wc.Outer, nil, sw.Out(0))
	if err != nil {
		b.fail("core: %v", err)
		return graph.Output{}, graph.Output{}
	}
	wc.Enters = append(wc.Enters, enter)
	wc.Merges = append(wc.Merges, m)
	wc.Switches = append(wc.Switches, sw)
	wc.NextIters = append(wc.NextIters, ni)
	wc.Exits = append(wc.Exits, e)
	wc.Inits = append(wc.Inits, ext)
	wc.BodyOuts = append(wc.BodyOuts, nxtC)
	for _, n := range []*graph.Node{enter, m, sw, ni, e} {
		TagConstruct(n, wc)
	}
	return sw.Out(1), e.Out(0)
}
