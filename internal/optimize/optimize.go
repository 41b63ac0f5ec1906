// Package optimize implements the whole-program graph optimizations the
// paper's §3 attributes to the runtime: constant folding (constant
// propagation) and common-subexpression elimination, plus folding of matrix
// transposes into the MatMul that reads them. All are possible precisely
// because the in-graph approach exposes a single unified dataflow graph
// before execution — the advantage §1 argues for.
//
// The passes are conservative around dynamic control flow: stateful ops are
// never folded or deduplicated, control-flow primitives are left intact,
// and ops inside control-flow contexts keep their context (folding a
// guarded op would change *where* the value materializes, so only root
// nodes fold; CSE merges only nodes sharing the identical context and
// control dependencies).
package optimize

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Stats reports what a pass did.
type Stats struct {
	Folded     int // nodes replaced by constants
	CSE        int // nodes deduplicated
	Transposes int // Transpose operands folded into MatMul attrs
}

// controlFlowOps never participate in folding or CSE.
var controlFlowOps = map[string]bool{
	"Switch": true, "Merge": true, "Enter": true, "Exit": true,
	"NextIteration": true, "LoopCond": true, "Send": true, "Recv": true,
	"Placeholder": true,
}

// foldEnv supplies the minimal environment constant kernels may touch.
type foldEnv struct{ rng *tensor.RNG }

func (e *foldEnv) Feed(string) (*tensor.Tensor, bool) { return nil, false }
func (e *foldEnv) StepRes() *ops.Resources            { return ops.NewResources() }
func (e *foldEnv) SessionRes() *ops.Resources         { return ops.NewResources() }
func (e *foldEnv) RNG() *tensor.RNG                   { return e.rng }

// FoldConstants evaluates root-context nodes whose inputs are all constants
// and whose kernels are pure, rewiring consumers to new Const nodes. It
// iterates to a fixed point.
func FoldConstants(g *graph.Graph) (Stats, error) {
	var st Stats
	for {
		n, err := foldOnce(g)
		if err != nil {
			return st, err
		}
		if n == 0 {
			return st, nil
		}
		st.Folded += n
	}
}

func foldOnce(g *graph.Graph) (int, error) {
	// constOf maps an output to its known constant value.
	constOf := map[graph.Output]*tensor.Tensor{}
	for _, n := range g.Nodes() {
		if n.Op() == "Const" {
			if v, ok := n.Attr("value").(*tensor.Tensor); ok {
				constOf[n.Out(0)] = v
			}
		}
	}
	folded := 0
	for _, n := range g.Nodes() {
		if n.Op() == "Const" || controlFlowOps[n.Op()] || n.Ctx != nil {
			continue
		}
		def, err := ops.Get(n.Op())
		if err != nil || def.Kernel == nil || def.Stateful {
			continue
		}
		if n.NumInputs() == 0 || len(n.ControlInputs()) > 0 || n.NumOutputs() != 1 {
			continue
		}
		ins := make([]ops.Value, n.NumInputs())
		all := true
		for i := 0; i < n.NumInputs(); i++ {
			v, ok := constOf[n.Input(i)]
			if !ok {
				all = false
				break
			}
			ins[i] = ops.TensorVal(v)
		}
		if !all {
			continue
		}
		consumers := g.ConsumersOf(n.Out(0))
		if len(consumers) == 0 {
			continue
		}
		out, err := def.Kernel(&ops.KernelContext{
			OpName: n.Op(), NodeName: n.Name(), Attrs: n.AttrsMap(),
			In: ins, Env: &foldEnv{rng: tensor.NewRNG(1)},
		})
		if err != nil {
			// A folding failure (e.g. shape error) will surface at
			// run time with full context; skip it here.
			continue
		}
		if len(out) != 1 || out[0].T == nil {
			continue
		}
		cn, err := g.AddNode(graph.NodeArgs{
			Op:         "Const",
			Name:       "folded_" + n.Name(),
			Attrs:      map[string]any{"value": out[0].T},
			Device:     n.Device(),
			NumOutputs: 1,
		})
		if err != nil {
			return folded, err
		}
		for _, ce := range consumers {
			ce.Node.ReplaceInput(ce.Input, cn.Out(0))
		}
		folded++
	}
	return folded, nil
}

// CSE merges structurally identical stateless nodes: same op, attrs,
// inputs, control inputs, device, and control-flow context. It iterates to
// a fixed point (merging enables further merges downstream). Replaced
// nodes stay in the graph, disconnected; session pruning drops them from
// execution.
func CSE(g *graph.Graph) (Stats, error) {
	var st Stats
	replaced := map[int]bool{}
	for {
		n := cseOnce(g, replaced)
		if n == 0 {
			return st, nil
		}
		st.CSE += n
	}
}

func cseOnce(g *graph.Graph, replaced map[int]bool) int {
	seen := map[string]*graph.Node{}
	merged := 0
	for _, n := range g.Nodes() {
		if controlFlowOps[n.Op()] || replaced[n.ID()] {
			continue
		}
		def, err := ops.Get(n.Op())
		if err != nil || def.Stateful {
			continue
		}
		key := signature(n)
		if key == "" {
			continue
		}
		if rep, ok := seen[key]; ok {
			// Rewire all consumers of n's outputs to rep's.
			for port := 0; port < n.NumOutputs(); port++ {
				for _, ce := range g.ConsumersOf(n.Out(port)) {
					ce.Node.ReplaceInput(ce.Input, rep.Out(port))
				}
			}
			replaced[n.ID()] = true
			merged++
			continue
		}
		seen[key] = n
	}
	return merged
}

// signature renders a structural identity key for a node; "" means the node
// is not CSE-eligible (unhashable attributes).
func signature(n *graph.Node) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s@%s|ctx=%p|", n.Op(), n.Device(), n.Ctx)
	for _, in := range n.Inputs() {
		fmt.Fprintf(&sb, "i%d:%d;", in.Node.ID(), in.Index)
	}
	ctl := n.ControlInputs()
	ids := make([]int, len(ctl))
	for i, c := range ctl {
		ids[i] = c.ID()
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&sb, "c%d;", id)
	}
	attrs := n.AttrsMap()
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := attrs[k].(type) {
		case string, int, int64, bool, float64:
			fmt.Fprintf(&sb, "a%s=%v;", k, v)
		case []int:
			fmt.Fprintf(&sb, "a%s=%v;", k, v)
		case *tensor.Tensor:
			// Hash small constants by value; big ones by identity.
			if v.Size() <= 64 {
				fmt.Fprintf(&sb, "a%s=%s;", k, v.String())
			} else {
				fmt.Fprintf(&sb, "a%s=%p;", k, v)
			}
		case nil:
			fmt.Fprintf(&sb, "a%s=nil;", k)
		default:
			return "" // unhashable attribute (e.g. contexts)
		}
	}
	return sb.String()
}

// foldTransposes rewrites MatMul(Transpose(x), y) and MatMul(x, Transpose(y))
// to read x or y in place: the MatMul's transpose_a / transpose_b attr is
// toggled and the operand rewired past the Transpose, whose kernel would
// otherwise copy the whole matrix in front of every product. Only the plain
// matrix transpose folds (no perm, or perm [1 0], which only a rank-2 operand
// accepts), and only within one device and control-flow context — rewiring
// across a frame boundary would change where the value is read. A transpose
// of an already-transposed operand toggles the attr back off. The Transpose
// node stays in the graph like a CSE victim: other consumers and fetches
// naming it still work, and session pruning drops it once nothing does. It
// returns the number of operands folded.
func foldTransposes(g *graph.Graph) int {
	folded := 0
	attrs := [2]string{"transpose_a", "transpose_b"}
	for _, n := range g.Nodes() {
		if n.Op() != "MatMul" || n.NumInputs() != 2 {
			continue
		}
		for i, attr := range attrs {
			// A chain of transposes folds one link at a time.
			for {
				tr := n.Input(i).Node
				perm, _ := tr.Attr("perm").([]int)
				plain := len(perm) == 0 || (len(perm) == 2 && perm[0] == 1 && perm[1] == 0)
				if tr.Op() != "Transpose" || !plain || tr.Ctx != n.Ctx || tr.Device() != n.Device() ||
					tr.NumControlInputs() > 0 {
					break
				}
				n.ReplaceInput(i, tr.Input(0))
				n.SetAttr(attr, !n.AttrBool(attr))
				folded++
			}
		}
	}
	return folded
}

// Optimize runs constant folding, then CSE, then transpose folding.
func Optimize(g *graph.Graph) (Stats, error) {
	f, err := FoldConstants(g)
	if err != nil {
		return f, err
	}
	c, err := CSE(g)
	f.CSE = c.CSE
	if err != nil {
		return f, err
	}
	f.Transposes = foldTransposes(g)
	return f, nil
}
