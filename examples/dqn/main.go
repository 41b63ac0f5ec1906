// Deep Q-Network example (§6.5): the whole reinforcement-learning
// interaction — conditional explore/exploit action selection, the
// environment transition, a conditional write to an in-graph replay
// database, Q-learning on a sampled batch, and a conditional target-network
// sync — fused into a single dataflow graph, invoked once per interaction.
package main

import (
	"fmt"
	"log"

	"repro/dcf"
	"repro/internal/nn"
)

const (
	stateDim  = 6
	actions   = 3
	hidden    = 16
	replayCap = 128
	batch     = 8
	eps       = 0.15
	gamma     = 0.9
	lr        = 0.05
)

func main() {
	g := dcf.NewGraph()
	q1 := nn.NewDense(g, "q/l1", stateDim, hidden, func(t dcf.Tensor) dcf.Tensor { return t.Tanh() }, 1)
	q2 := nn.NewDense(g, "q/l2", hidden, actions, nil, 2)
	vars := &nn.VarSet{}
	vars.Merge(&q1.Vars)
	vars.Merge(&q2.Vars)
	g.Variable("replay", dcf.Zeros(replayCap, 2*stateDim+actions+1))
	g.Variable("step", dcf.ScalarVal(0))

	s := g.Placeholder("state")
	stepV := g.ReadVariable("step")

	// Conditional action selection: explore with probability eps.
	qs := q2.Apply(q1.Apply(s))
	explore := g.RandomUniformOp(1).Less(g.Scalar(eps))
	action := g.Cond(explore,
		func() []dcf.Tensor {
			return []dcf.Tensor{g.RandomUniformOp(1).Mul(g.Scalar(actions)).Cast(dcf.Int)}
		},
		func() []dcf.Tensor { return []dcf.Tensor{qs.ArgMax(1)} },
	)[0]
	aOne := action.OneHot(actions)

	// Synthetic environment: deterministic transition + reward.
	we := g.Const(dcf.RandNormal(101, 0, 0.4, stateDim+actions, stateDim))
	wr := g.Const(dcf.RandNormal(102, 0, 0.6, stateDim, actions))
	ns := dcf.Concat(1, s, aOne).MatMul(we).Tanh()
	r := aOne.Mul(s.MatMul(wr)).ReduceSum().Reshape(1, 1)

	// In-graph replay database write.
	slot := stepV.Mod(g.Scalar(replayCap)).Cast(dcf.Int).Reshape(1)
	write := g.ScatterUpdate("replay", slot, dcf.Concat(1, s, aOne, r, ns))

	// Q-learning over a sampled batch (single network for brevity; the
	// benchmark uses a separate target network).
	limit := stepV.Add(g.Scalar(1)).Minimum(g.Scalar(replayCap))
	ixs := g.RandomUniformOp(batch).Mul(limit).Cast(dcf.Int)
	rows := g.ReadVariable("replay").After(write).Gather(ixs)
	sB := rows.SliceCols(0, stateDim)
	aB := rows.SliceCols(stateDim, actions)
	rB := rows.SliceCols(stateDim+actions, 1).Squeeze(1)
	nsB := rows.SliceCols(stateDim+actions+1, stateDim)
	qNext := q2.Apply(q1.Apply(nsB)).ReduceMax([]int{1}, false).StopGradient()
	targetQ := rB.Add(qNext.Mul(g.Scalar(gamma)))
	predQ := q2.Apply(q1.Apply(sB)).Mul(aB).ReduceSumAxes([]int{1}, false)
	loss := nn.MSE(predQ, targetQ)
	train, err := nn.SGDStep(g, loss, vars, lr, false)
	if err != nil {
		log.Fatal(err)
	}
	stepOp := g.Group(write, train, g.AssignAdd("step", g.Scalar(1)))
	if err := g.Err(); err != nil {
		log.Fatal(err)
	}

	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		log.Fatal(err)
	}
	cur := dcf.RandNormal(5, 0, 1, 1, stateDim)
	var totalReward float64
	const episodes = 400
	for i := 0; i < episodes; i++ {
		out, err := sess.Run(dcf.Feeds{"state": cur}, []dcf.Tensor{ns, r}, stepOp)
		if err != nil {
			log.Fatal(err)
		}
		cur = out[0]
		totalReward += out[1].F[0]
		if (i+1)%100 == 0 {
			fmt.Printf("after %3d interactions: cumulative reward %.2f\n", i+1, totalReward)
		}
	}
	fmt.Println("every decision above ran inside the dataflow graph: one Session.Run per interaction")
}
