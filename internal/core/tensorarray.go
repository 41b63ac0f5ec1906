package core

import (
	"repro/internal/graph"
)

// TA is the symbolic TensorArray handle+flow pair (§2.1). The flow scalar
// threads ordering between reads and writes: every mutation returns a new
// TA whose flow depends on the mutation, and loops carry the flow as a loop
// variable, exactly as the paper's Figure 2 does.
type TA struct {
	Handle graph.Output
	Flow   graph.Output
}

// TensorArray creates a TensorArray of the given (int scalar) size.
func (b *Builder) TensorArray(size graph.Output) TA {
	n := b.OpNode("TensorArray", "", nil, size)
	if n == nil {
		return TA{}
	}
	return TA{Handle: n.Out(0), Flow: n.Out(1)}
}

// TAWrite writes v at index ix, returning the array with updated flow.
func (b *Builder) TAWrite(ta TA, ix, v graph.Output) TA {
	f := b.Op("TensorArrayWrite", nil, ta.Handle, ix, v, ta.Flow)
	return TA{Handle: ta.Handle, Flow: f}
}

// TARead reads the element at index ix.
func (b *Builder) TARead(ta TA, ix graph.Output) graph.Output {
	return b.Op("TensorArrayRead", nil, ta.Handle, ix, ta.Flow)
}

// TASize returns the array size as an int scalar.
func (b *Builder) TASize(ta TA) graph.Output {
	return b.Op("TensorArraySize", nil, ta.Handle, ta.Flow)
}

// TAStack packs the whole array into one tensor along a new axis 0.
func (b *Builder) TAStack(ta TA) graph.Output {
	return b.Op("TensorArrayStack", nil, ta.Handle, ta.Flow)
}

// TAUnstack splits v along axis 0 into the array.
func (b *Builder) TAUnstack(ta TA, v graph.Output) TA {
	f := b.Op("TensorArrayUnstack", nil, ta.Handle, v, ta.Flow)
	return TA{Handle: ta.Handle, Flow: f}
}
