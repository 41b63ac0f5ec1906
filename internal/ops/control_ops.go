package ops

// Control-flow primitives (§4.1 of the paper) and communication ops. Their
// semantics live in the executor (internal/exec) — tokens, frames, and
// deadness cannot be expressed as pure kernels — so their Kernel is nil,
// except LoopCond which is a plain identity marking the loop predicate.
//
//	Switch(d, p)        -> (d_false, d_true)
//	Merge(d1, d2)       -> d (first available live input; non-strict)
//	Enter(d)            -> d in the child frame     (attr frame_name)
//	Exit(d)             -> d in the parent frame
//	NextIteration(d)    -> d in the next iteration's frame
//	LoopCond(p)         -> p (identity; marks the loop's termination predicate)
//	Send(t)             -> ()       (attr key; publishes t in the rendezvous)
//	Recv()              -> t        (attr key; blocks until published)

func init() {
	Register(&OpDef{Name: "Switch", NumOutputs: 2, Inputs: Exactly(2)})
	Register(&OpDef{Name: "Merge", NumOutputs: 1, Inputs: AtLeast(1)})
	Register(&OpDef{Name: "Enter", NumOutputs: 1, Inputs: Exactly(1)})
	Register(&OpDef{Name: "Exit", NumOutputs: 1, Inputs: Exactly(1)})
	Register(&OpDef{Name: "NextIteration", NumOutputs: 1, Inputs: Exactly(1)})
	Register(&OpDef{Name: "LoopCond", NumOutputs: 1, Inputs: Exactly(1), Kernel: func(ctx *KernelContext) ([]Value, error) {
		return ctx.One(ctx.In[0]), nil
	}})
	Register(&OpDef{Name: "Send", NumOutputs: 0, Inputs: Exactly(1), Stateful: true})
	Register(&OpDef{Name: "Recv", NumOutputs: 1, Inputs: Exactly(0), Stateful: true})
}
