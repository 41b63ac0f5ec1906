// Package oracle holds the control-flow core's independent reference: a
// sequential interpreter for what core.Builder builds, and a seeded
// generator of nested cond/while programs whose every fetch the executor
// must reproduce bit for bit under every window, GOMAXPROCS and
// optimization setting. It has no non-test code.
package oracle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// scope is one activation of a control-flow context: the root, the taken
// branch of one cond evaluation, or one iteration of one loop run. Values
// are computed at most once per scope. There are no frames, tokens,
// deadness or windows: an untaken branch is never entered, and a loop is a
// Go for loop.
type scope struct {
	ctx   core.Context // nil at the root
	outer *scope
	vals  map[graph.Output]*tensor.Tensor
	vars  []*tensor.Tensor // loop variables of this iteration (while scopes)
	conds map[*core.CondContext]*scope
	loops map[*core.WhileContext][]*tensor.Tensor // a loop's exit values
}

func newScope(ctx core.Context, outer *scope) *scope {
	return &scope{ctx: ctx, outer: outer, vals: map[graph.Output]*tensor.Tensor{},
		conds: map[*core.CondContext]*scope{}, loops: map[*core.WhileContext][]*tensor.Tensor{}}
}

// find returns the innermost activation of ctx enclosing s.
func (s *scope) find(ctx core.Context) *scope {
	for f := s; f != nil; f = f.outer {
		if f.ctx == ctx {
			return f
		}
	}
	panic(fmt.Sprintf("oracle: no activation of %v encloses the use", ctx))
}

// reference evaluates fetches sequentially, given the placeholder feeds.
func reference(feeds map[string]*tensor.Tensor, fetches []graph.Output) ([]*tensor.Tensor, error) {
	root := newScope(nil, nil)
	out := make([]*tensor.Tensor, len(fetches))
	for i, f := range fetches {
		v, err := root.value(feeds, f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// value computes out in the activation of its node's context.
func (s *scope) value(feeds map[string]*tensor.Tensor, out graph.Output) (*tensor.Tensor, error) {
	n := out.Node
	s = s.find(core.CtxOf(out))
	if v, ok := s.vals[out]; ok {
		return v, nil
	}
	var v *tensor.Tensor
	var err error
	switch construct := core.ConstructOf(n); {
	case n.Op() == "Placeholder":
		if v = feeds[n.Name()]; v == nil {
			err = fmt.Errorf("oracle: placeholder %s not fed", n.Name())
		}
	case n.Op() == "Switch", n.Op() == "LoopCond":
		// A Switch output is asked for only on the side that runs.
		v, err = s.value(feeds, n.Input(0))
	case n.Op() == "Enter":
		v, err = s.outer.value(feeds, n.Input(0))
	case n.Op() == "Merge" && construct != nil:
		v, err = s.merge(feeds, n, construct)
	case n.Op() == "Exit":
		wc := construct.(*core.WhileContext)
		var exits []*tensor.Tensor
		if exits, err = s.loop(feeds, wc); err == nil {
			v = exits[index(wc.Exits, n)]
		}
	default:
		v, err = s.kernel(feeds, n, out.Index)
	}
	if err != nil {
		return nil, err
	}
	s.vals[out] = v
	return v, nil
}

// merge is a cond's result Merge (the taken branch's output) or a loop
// Merge (this iteration's variable).
func (s *scope) merge(feeds map[string]*tensor.Tensor, n *graph.Node, construct core.Context) (*tensor.Tensor, error) {
	if wc, ok := construct.(*core.WhileContext); ok {
		return s.vars[index(wc.Merges, n)], nil
	}
	tc := construct.(*core.CondContext)
	branch, ok := s.conds[tc]
	if !ok {
		p, err := s.value(feeds, tc.Pred)
		if err != nil {
			return nil, err
		}
		taken := tc.Peer
		if p.B[0] {
			taken = tc
		}
		branch = newScope(taken, s)
		s.conds[tc] = branch
	}
	c := branch.ctx.(*core.CondContext)
	return branch.value(feeds, c.BranchOuts[index(c.ResultMerges, n)])
}

// loop runs wc to completion from s and returns its exit values.
func (s *scope) loop(feeds map[string]*tensor.Tensor, wc *core.WhileContext) ([]*tensor.Tensor, error) {
	if exits, ok := s.loops[wc]; ok {
		return exits, nil
	}
	vars := make([]*tensor.Tensor, len(wc.Inits))
	for i, init := range wc.Inits {
		v, err := s.value(feeds, init)
		if err != nil {
			return nil, err
		}
		vars[i] = v
	}
	for {
		it := newScope(wc, s)
		it.vars = vars
		p, err := it.value(feeds, wc.LoopCondNode.Input(0))
		if err != nil {
			return nil, err
		}
		if !p.B[0] {
			break
		}
		next := make([]*tensor.Tensor, len(vars))
		for i, bo := range wc.BodyOuts {
			if next[i], err = it.value(feeds, bo); err != nil {
				return nil, err
			}
		}
		vars = next
	}
	s.loops[wc] = vars
	return vars, nil
}

// kernel runs an ordinary node's ops kernel on its computed inputs. No
// input is forwardable, so no kernel writes into a value the interpreter
// still holds.
func (s *scope) kernel(feeds map[string]*tensor.Tensor, n *graph.Node, port int) (*tensor.Tensor, error) {
	def, err := ops.Get(n.Op())
	if err != nil {
		return nil, err
	}
	ins := make([]ops.Value, n.NumInputs())
	for i := range ins {
		t, err := s.value(feeds, n.Input(i))
		if err != nil {
			return nil, err
		}
		ins[i] = ops.TensorVal(t)
	}
	outs, err := def.Kernel(&ops.KernelContext{OpName: n.Op(), NodeName: n.Name(), Attrs: n.AttrsMap(), In: ins})
	if err != nil {
		return nil, fmt.Errorf("oracle: %s (%s): %w", n.Name(), n.Op(), err)
	}
	for i, o := range outs {
		if i != port {
			continue
		}
		return o.Tensor()
	}
	return nil, fmt.Errorf("oracle: %s (%s) has no output %d", n.Name(), n.Op(), port)
}

func index(nodes []*graph.Node, n *graph.Node) int {
	for i, m := range nodes {
		if m == n {
			return i
		}
	}
	panic(fmt.Sprintf("oracle: %s is not in its construct", n.Name()))
}
