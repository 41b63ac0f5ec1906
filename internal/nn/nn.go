// Package nn builds neural-network layers on the public dcf API: dense
// layers, LSTM cells, dynamic RNNs (the paper's dynamic_rnn: a while-loop
// over TensorArrays, §2.2/§6.2), statically unrolled RNNs (the §6.3
// baseline), and a sparsely gated mixture-of-experts layer (§2.2), plus
// losses and SGD training steps.
package nn

import (
	"fmt"

	"repro/dcf"
)

// VarSet tracks trainable variables (names, reads, and static shapes) so
// optimizers can update them and allocate matching slot variables.
type VarSet struct {
	Names  []string
	Reads  []dcf.Tensor
	Shapes [][]int
}

// Add registers a variable.
func (vs *VarSet) Add(name string, read dcf.Tensor, shape ...int) {
	vs.Names = append(vs.Names, name)
	vs.Reads = append(vs.Reads, read)
	vs.Shapes = append(vs.Shapes, shape)
}

// Merge absorbs another set.
func (vs *VarSet) Merge(o *VarSet) {
	vs.Names = append(vs.Names, o.Names...)
	vs.Reads = append(vs.Reads, o.Reads...)
	vs.Shapes = append(vs.Shapes, o.Shapes...)
}

// Dense is a fully connected layer y = act(x W + b).
type Dense struct {
	g    *dcf.Graph
	W, B dcf.Tensor
	Act  func(dcf.Tensor) dcf.Tensor
	Vars VarSet
}

// NewDense declares a Dense layer's variables.
func NewDense(g *dcf.Graph, name string, in, out int, act func(dcf.Tensor) dcf.Tensor, seed uint64) *Dense {
	d := &Dense{g: g, Act: act}
	wName, bName := name+"/W", name+"/b"
	d.W = g.Variable(wName, dcf.GlorotUniform(seed, in, out))
	d.B = g.Variable(bName, dcf.Zeros(out))
	d.Vars.Add(wName, d.W, in, out)
	d.Vars.Add(bName, d.B, out)
	return d
}

// Apply runs the layer on a [batch, in] input.
func (d *Dense) Apply(x dcf.Tensor) dcf.Tensor {
	y := x.MatMul(d.W).Add(d.B)
	if d.Act != nil {
		y = d.Act(y)
	}
	return y
}

// LSTMCell is a standard LSTM (§6.2 uses a single-layer LSTM with 512
// units). Gate order: input, forget, cell candidate, output.
type LSTMCell struct {
	g     *dcf.Graph
	Units int
	In    int
	Wx    dcf.Tensor // [in, 4*units]
	Wh    dcf.Tensor // [units, 4*units]
	B     dcf.Tensor // [4*units]
	Vars  VarSet
}

// NewLSTMCell declares the cell's variables.
func NewLSTMCell(g *dcf.Graph, name string, in, units int, seed uint64) *LSTMCell {
	c := &LSTMCell{g: g, Units: units, In: in}
	wx, wh, bn := name+"/Wx", name+"/Wh", name+"/b"
	c.Wx = g.Variable(wx, dcf.GlorotUniform(seed, in, 4*units))
	c.Wh = g.Variable(wh, dcf.GlorotUniform(seed+1, units, 4*units))
	// Forget-gate bias 1.0, the standard trick for gradient flow.
	bias := dcf.Zeros(4 * units)
	for i := units; i < 2*units; i++ {
		bias.F[i] = 1
	}
	c.B = g.Variable(bn, bias)
	c.Vars.Add(wx, c.Wx, in, 4*units)
	c.Vars.Add(wh, c.Wh, units, 4*units)
	c.Vars.Add(bn, c.B, 4*units)
	return c
}

// Step applies the cell to one sequence element: x [batch, in], h and cst
// [batch, units]; returns the new (h, cst).
func (c *LSTMCell) Step(x, h, cst dcf.Tensor) (dcf.Tensor, dcf.Tensor) {
	z := x.MatMul(c.Wx).Add(h.MatMul(c.Wh)).Add(c.B)
	gates := dcf.Unpack(splitGates(z, c.Units), 4)
	i := gates[0].Sigmoid()
	f := gates[1].Sigmoid()
	cc := gates[2].Tanh()
	o := gates[3].Sigmoid()
	newC := f.Mul(cst).Add(i.Mul(cc))
	newH := o.Mul(newC.Tanh())
	return newH, newC
}

// splitGates reshapes [batch, 4u] into [4, batch, u] for Unpack.
func splitGates(z dcf.Tensor, units int) dcf.Tensor {
	// [batch, 4u] -> [batch, 4, u] -> [4, batch, u]
	return z.Reshape(-1, 4, units).Transpose(1, 0, 2)
}

// RNNResult bundles a recurrent run's outputs.
type RNNResult struct {
	// Outputs is [T, batch, units] (the per-step hidden states).
	Outputs dcf.Tensor
	// FinalH and FinalC are the last hidden and cell states.
	FinalH dcf.Tensor
	FinalC dcf.Tensor
}

// DynamicRNN runs the cell over inputs [T, batch, in] with a while-loop and
// TensorArrays — the paper's dynamic_rnn (§2.2). The sequence length is
// dynamic (taken from the input at run time); iterations pipeline up to the
// loop's parallel-iterations window; gradients save per-step state on
// swap-aware stacks.
func DynamicRNN(g *dcf.Graph, cell *LSTMCell, inputs, h0, c0 dcf.Tensor, opts dcf.WhileOpts) RNNResult {
	if opts.Name == "" {
		opts.Name = "dynamic_rnn"
	}
	inputTA := g.TensorArray(g.Int(0)).Unstack(inputs)
	n := inputTA.Size()
	outputTA := g.TensorArray(n)
	outs := g.While(
		[]dcf.Tensor{g.Int(0), h0, c0, outputTA.Flow()},
		func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(n) },
		func(v []dcf.Tensor) []dcf.Tensor {
			i, h, cst := v[0], v[1], v[2]
			x := inputTA.Read(i)
			nh, nc := cell.Step(x, h, cst)
			w := outputTA.WithFlow(v[3]).Write(i, nh)
			return []dcf.Tensor{i.Add(g.Int(1)), nh, nc, w.Flow()}
		},
		opts,
	)
	stacked := outputTA.WithFlow(outs[3]).Stack()
	return RNNResult{Outputs: stacked, FinalH: outs[1], FinalC: outs[2]}
}

// StaticRNN unrolls the cell statically for a fixed T (the §6.3 baseline:
// no dynamic control flow, the whole unrolled graph is exposed at once).
func StaticRNN(g *dcf.Graph, cell *LSTMCell, inputs dcf.Tensor, T int, h0, c0 dcf.Tensor) RNNResult {
	steps := dcf.Unpack(inputs, T)
	h, cst := h0, c0
	outs := make([]dcf.Tensor, T)
	for t := 0; t < T; t++ {
		h, cst = cell.Step(steps[t], h, cst)
		outs[t] = h
	}
	return RNNResult{Outputs: dcf.Pack(outs...), FinalH: h, FinalC: cst}
}

// MoE is a sparsely gated mixture-of-experts layer (§2.2): a gating network
// picks one expert per batch; only the selected expert's subgraph executes,
// via in-graph conditionals — the conditional-computation pattern the paper
// highlights.
type MoE struct {
	g       *dcf.Graph
	Gate    *Dense
	Experts []*Dense
	Vars    VarSet
}

// NewMoE declares a gate and numExperts expert networks.
func NewMoE(g *dcf.Graph, name string, in, out, numExperts int, seed uint64) *MoE {
	m := &MoE{g: g}
	m.Gate = NewDense(g, name+"/gate", in, numExperts, nil, seed)
	m.Vars.Merge(&m.Gate.Vars)
	for e := 0; e < numExperts; e++ {
		ex := NewDense(g, fmt.Sprintf("%s/expert%d", name, e), in, out,
			func(t dcf.Tensor) dcf.Tensor { return t.Tanh() }, seed+uint64(e)+1)
		m.Experts = append(m.Experts, ex)
		m.Vars.Merge(&ex.Vars)
	}
	return m
}

// Apply routes the whole batch to the top-1 expert chosen by the mean gate
// activation (batch-level routing keeps the example simple; the gating
// weights remain differentiable through the multiplied gate score).
func (m *MoE) Apply(x dcf.Tensor) dcf.Tensor {
	g := m.g
	scores := m.Gate.Apply(x).Softmax()        // [batch, E]
	mean := scores.ReduceMean([]int{0}, false) // [E]
	sel := mean.ArgMax(0)                      // scalar int
	var out dcf.Tensor
	for e, ex := range m.Experts {
		ex := ex
		e := e
		isSel := sel.Equal(g.Int(int64(e)))
		branch := g.Cond(isSel,
			func() []dcf.Tensor {
				w := gateColumn(g, scores, e) // [batch, 1]
				return []dcf.Tensor{ex.Apply(x).Mul(w)}
			},
			func() []dcf.Tensor {
				// Correctly shaped [batch, out] zeros without any
				// expert-sized computation: broadcast a zero gate
				// column against a zero bias row.
				return []dcf.Tensor{gateColumn(g, scores, e).ZerosLike().Mul(ex.B.ZerosLike())}
			},
		)
		if e == 0 {
			out = branch[0]
		} else {
			out = out.Add(branch[0])
		}
	}
	return out
}

// gateColumn extracts gate column e of [batch, E] scores as [batch, 1].
func gateColumn(g *dcf.Graph, scores dcf.Tensor, e int) dcf.Tensor {
	return scores.Transpose().SliceRows(g.Int(int64(e)), 1).Transpose()
}

// --- Losses and training ---------------------------------------------------

// MSE is mean squared error over all elements.
func MSE(pred, target dcf.Tensor) dcf.Tensor {
	return pred.Sub(target).Square().ReduceMean(nil, false)
}

// SoftmaxCrossEntropy averages -sum(labels * logsoftmax(logits)) over the
// batch; labels are one-hot [batch, classes].
func SoftmaxCrossEntropy(logits, labels dcf.Tensor) dcf.Tensor {
	ll := logits.LogSoftmax()
	perExample := labels.Mul(ll).ReduceSumAxes([]int{-1}, false).Neg()
	return perExample.ReduceMean(nil, false)
}

// SGDStep builds gradients of loss with respect to the variable set and an
// op applying var -= lr*grad to each; swap enables memory swapping for the
// gradient stacks (§5.3).
func SGDStep(g *dcf.Graph, loss dcf.Tensor, vars *VarSet, lr float64, swap bool) (dcf.Op, error) {
	grads, err := g.Gradients(loss, vars.Reads, dcf.GradOptions{SwapMemory: swap})
	if err != nil {
		return dcf.Op{}, err
	}
	lrT := g.Scalar(lr)
	ops := make([]dcf.Op, len(grads))
	for i, gr := range grads {
		ops[i] = g.ApplySGD(vars.Names[i], gr, lrT)
	}
	return g.Group(ops...), nil
}
