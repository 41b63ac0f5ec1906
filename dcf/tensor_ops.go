package dcf

import "repro/internal/graph"

// Fluent math methods on symbolic tensors. Each adds one op to the graph in
// the current control-flow context; cross-context inputs are captured
// automatically (§4.2).

func (t Tensor) bin(op string, u Tensor) Tensor {
	return t.g.wrap(t.g.b.Op(op, nil, t.o, u.o))
}

func (t Tensor) un(op string) Tensor {
	return t.g.wrap(t.g.b.Op(op, nil, t.o))
}

// Add returns t+u with broadcasting.
func (t Tensor) Add(u Tensor) Tensor { return t.bin("Add", u) }

// Sub returns t-u with broadcasting.
func (t Tensor) Sub(u Tensor) Tensor { return t.bin("Sub", u) }

// Mul returns t*u elementwise with broadcasting.
func (t Tensor) Mul(u Tensor) Tensor { return t.bin("Mul", u) }

// Mod returns the elementwise remainder.
func (t Tensor) Mod(u Tensor) Tensor { return t.bin("Mod", u) }

// Minimum returns the elementwise min.
func (t Tensor) Minimum(u Tensor) Tensor { return t.bin("Minimum", u) }

// MatMul returns the matrix product t @ u of two matrices, or of two rank-3
// batches of matrices with the same leading dimension. The MatMul node reads
// an operand transposed over its last two axes when its transpose_a /
// transpose_b attribute is set: the gradient sets them instead of building
// Transpose nodes, so it copies no matrix.
func (t Tensor) MatMul(u Tensor) Tensor { return t.bin("MatMul", u) }

// Less returns t<u elementwise (bool).
func (t Tensor) Less(u Tensor) Tensor { return t.bin("Less", u) }

// Equal returns t==u elementwise (bool).
func (t Tensor) Equal(u Tensor) Tensor { return t.bin("Equal", u) }

// NotEqual returns t!=u elementwise (bool).
func (t Tensor) NotEqual(u Tensor) Tensor { return t.bin("NotEqual", u) }

// And returns t&&u elementwise over bools.
func (t Tensor) And(u Tensor) Tensor { return t.bin("LogicalAnd", u) }

// Neg returns -t.
func (t Tensor) Neg() Tensor { return t.un("Neg") }

// Square returns t² elementwise.
func (t Tensor) Square() Tensor { return t.un("Square") }

// Sigmoid returns the logistic function of t.
func (t Tensor) Sigmoid() Tensor { return t.un("Sigmoid") }

// Tanh returns tanh(t).
func (t Tensor) Tanh() Tensor { return t.un("Tanh") }

// Softmax returns softmax along the last axis.
func (t Tensor) Softmax() Tensor { return t.un("Softmax") }

// LogSoftmax returns log-softmax along the last axis.
func (t Tensor) LogSoftmax() Tensor { return t.un("LogSoftmax") }

// StopGradient passes the value through but blocks gradient flow.
func (t Tensor) StopGradient() Tensor { return t.un("StopGradient") }

// ReduceSum sums all elements to a scalar.
func (t Tensor) ReduceSum() Tensor { return t.ReduceSumAxes(nil, false) }

// ReduceSumAxes sums over the given axes (nil = all).
func (t Tensor) ReduceSumAxes(axes []int, keepDims bool) Tensor {
	return t.g.wrap(t.g.b.Op("Sum", map[string]any{"axes": axes, "keep_dims": keepDims}, t.o))
}

// ReduceMean averages over the given axes (nil = all).
func (t Tensor) ReduceMean(axes []int, keepDims bool) Tensor {
	return t.g.wrap(t.g.b.Op("Mean", map[string]any{"axes": axes, "keep_dims": keepDims}, t.o))
}

// ReduceMax maximizes over the given axes (nil = all).
func (t Tensor) ReduceMax(axes []int, keepDims bool) Tensor {
	return t.g.wrap(t.g.b.Op("Max", map[string]any{"axes": axes, "keep_dims": keepDims}, t.o))
}

// ArgMax returns the index of the max along axis.
func (t Tensor) ArgMax(axis int) Tensor {
	return t.g.wrap(t.g.b.Op("ArgMax", map[string]any{"axis": axis}, t.o))
}

// Transpose transposes a matrix (or applies perm for higher ranks).
func (t Tensor) Transpose(perm ...int) Tensor {
	return t.g.wrap(t.g.b.Op("Transpose", map[string]any{"perm": perm}, t.o))
}

// Reshape reshapes to a static shape (one -1 dim may be inferred).
func (t Tensor) Reshape(shape ...int) Tensor {
	return t.g.wrap(t.g.b.Op("Reshape", map[string]any{"shape": shape}, t.o))
}

// Cast converts the element type.
func (t Tensor) Cast(to DType) Tensor {
	return t.g.wrap(t.g.b.Op("Cast", map[string]any{"to": to}, t.o))
}

// ZerosLike returns zeros shaped like t.
func (t Tensor) ZerosLike() Tensor { return t.un("ZerosLike") }

// Gather selects rows of t by int indices.
func (t Tensor) Gather(ix Tensor) Tensor { return t.bin("Gather", ix) }

// SliceRows takes rows [start, start+size) along axis 0 (size is static).
func (t Tensor) SliceRows(start Tensor, size int) Tensor {
	return t.g.wrap(t.g.b.Op("SliceRows", map[string]any{"size": size}, t.o, start.o))
}

// SliceCols takes columns [begin, begin+size) along axis 1.
func (t Tensor) SliceCols(begin, size int) Tensor {
	g := t.g
	return g.wrap(g.b.Op("SliceAxis", map[string]any{"axis": 1},
		t.o, g.b.ScalarInt(int64(begin)), g.b.ScalarInt(int64(size))))
}

// ExpandDims inserts a size-1 axis.
func (t Tensor) ExpandDims(axis int) Tensor {
	return t.g.wrap(t.g.b.Op("ExpandDims", map[string]any{"axis": axis}, t.o))
}

// Squeeze removes size-1 axes.
func (t Tensor) Squeeze(axes ...int) Tensor {
	return t.g.wrap(t.g.b.Op("Squeeze", map[string]any{"axes": axes}, t.o))
}

// OneHot encodes int indices as one-hot float rows.
func (t Tensor) OneHot(depth int) Tensor {
	return t.g.wrap(t.g.b.Op("OneHot", map[string]any{"depth": depth}, t.o))
}

// Concat concatenates tensors along axis.
func Concat(axis int, ts ...Tensor) Tensor {
	if len(ts) == 0 {
		return Tensor{}
	}
	g := ts[0].g
	return g.wrap(g.b.Op("Concat", map[string]any{"axis": axis}, unwrap(ts)...))
}

// Pack stacks tensors along a new axis 0.
func Pack(ts ...Tensor) Tensor {
	if len(ts) == 0 {
		return Tensor{}
	}
	g := ts[0].g
	return g.wrap(g.b.Op("Pack", nil, unwrap(ts)...))
}

// Unpack splits t into n tensors along axis 0 (n static).
func Unpack(t Tensor, n int) []Tensor {
	node := t.g.b.OpNode("Unpack", "", map[string]any{"num": n}, t.o)
	if node == nil {
		return make([]Tensor, n)
	}
	out := make([]Tensor, n)
	for i := range out {
		out[i] = t.g.wrap(graph.Output{Node: node, Index: i})
	}
	return out
}

// AddN sums same-shaped tensors.
func AddN(ts ...Tensor) Tensor {
	if len(ts) == 0 {
		return Tensor{}
	}
	g := ts[0].g
	return g.wrap(g.b.Op("AddN", nil, unwrap(ts)...))
}
