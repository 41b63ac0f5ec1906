package ops

import "repro/internal/tensor"

// sample is one invocation of an op: tensors for its inputs (a func, so
// every run gets its own) and the node attributes.
type sample struct {
	attrs map[string]any
	ins   func() []*tensor.Tensor
}

func mat(vals ...float64) *tensor.Tensor { return tensor.FromFloats(vals, 2, len(vals)/2) }

func same(ts ...*tensor.Tensor) func() []*tensor.Tensor {
	return func() []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(ts))
		for i, t := range ts {
			out[i] = t.Clone()
		}
		return out
	}
}

func ivec(vals ...int64) *tensor.Tensor { return tensor.FromInts(vals, len(vals)) }

// opSamples is the one table of op invocations the kernel-level checks run:
// TestFreshOutputsComeFromPool fails for an op registered Fresh without an
// entry, and TestInferMatchesKernel for an op with an inference rule without
// one, so a new op cannot skip either check.
func opSamples() map[string][]sample {
	a, b := mat(1, 2, 3, 4, 5, 6), mat(6, 5, 4, 3, 2, 1)
	pos := mat(.5, 1, 1.5, 2, 2.5, 3)
	ints := tensor.FromInts([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	bools := tensor.FromBools([]bool{true, false, true, false, true, false}, 2, 3)
	// Int operands take the kernels' cast-to-float-and-back paths, whose
	// intermediates must go back to the pool too.
	bin := []sample{{ins: same(a, b)}, {ins: same(a, tensor.Scalar(2))},
		{ins: same(ints, ints)}, {ins: same(ints, tensor.ScalarInt(2))}}
	un := []sample{{ins: same(pos)}, {ins: same(ints)}}
	logical := []sample{{ins: same(bools, bools)}}
	reduce := []sample{
		{attrs: map[string]any{"axes": []int{0}}, ins: same(a)},
		{attrs: map[string]any{"axes": []int{1}, "keep_dims": true}, ins: same(a)},
		{ins: same(a)},
		{attrs: map[string]any{"axes": []int{1}}, ins: same(ints)},
	}
	m := map[string][]sample{
		"MatMul": {
			{ins: same(a, tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 3, 2))},
			{attrs: map[string]any{"transpose_a": true}, ins: same(a, b)},
			{attrs: map[string]any{"transpose_b": true}, ins: same(a, b)},
			// Both: the kernel's transposed scratch must go back too.
			{attrs: map[string]any{"transpose_a": true, "transpose_b": true}, ins: same(a, tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2))},
		},
		// Forwarded (owned input: handed on or re-shaped in place) and
		// copied (borrowed input), same shape and not.
		"UnbroadcastTo": {
			{ins: same(a, ivec(2, 3))},
			{ins: same(a, ivec(3))},
			{ins: same(a, ivec(2, 1))},
			{ins: same(ints, ivec(1, 3))},
		},
		"Reshape": {
			{attrs: map[string]any{"shape": []int{3, 2}}, ins: same(a)},
			{attrs: map[string]any{"shape": []int{-1}}, ins: same(bools)},
			{ins: same(ints, ivec(6, 1))},
		},
		"Shape": un, "Size": un, "Rank": un,
		"ShapeDim":   {{attrs: map[string]any{"axis": -1}, ins: same(a)}},
		"Pack":       {{ins: same(a, b, pos)}, {ins: same(ints)}, {ins: same(bools, bools)}},
		"Unpack":     {{attrs: map[string]any{"num": 2}, ins: same(a)}, {attrs: map[string]any{"num": 2}, ins: same(bools)}},
		"ExpandDims": {{attrs: map[string]any{"axis": 1}, ins: same(a)}},
		"Squeeze": {
			{ins: same(tensor.FromFloats([]float64{1, 2, 3}, 1, 3, 1))},
			{attrs: map[string]any{"axes": []int{0}}, ins: same(tensor.FromFloats([]float64{1, 2, 3}, 1, 3, 1))},
		},
		"LogicalAnd": logical, "LogicalOr": logical,
		"LogicalNot": {{ins: same(bools)}},
		"ZerosLike":  {{ins: same(a)}, {ins: same(ints)}, {ins: same(bools)}},
		"OnesLike":   {{ins: same(a)}, {ins: same(ints)}, {ins: same(bools)}},
		"AddN":       {{ins: same(a)}, {ins: same(a, b, pos)}, {ins: same(ints, ints)}},
		"Select":     {{ins: same(bools, a, b)}},
		"Sum":        reduce, "Mean": reduce, "Max": reduce, "Min": reduce,
		"ArgMax": {{attrs: map[string]any{"axis": 1}, ins: same(a)}},
		"Transpose": {
			{ins: same(a)},
			{attrs: map[string]any{"perm": []int{1, 0}}, ins: same(ints)},
		},
		"Cast": {
			{attrs: map[string]any{"to": tensor.Int}, ins: same(a)},
			{attrs: map[string]any{"to": tensor.Float}, ins: same(ints)},
			{attrs: map[string]any{"to": tensor.Float}, ins: same(a)},
			{attrs: map[string]any{"to": tensor.Bool}, ins: same(a)},
		},
		// Ops that are not Fresh.
		"Const":       {{attrs: map[string]any{"value": a}}, {attrs: map[string]any{"value": ivec(2, 3)}}},
		"Placeholder": {{attrs: map[string]any{"dtype": int(tensor.Float), "shape": []int{2, 3}}}},
		"Identity":    {{ins: same(a)}, {ins: same(ivec(2, 3))}},
		"Fill": {
			{ins: same(ivec(2, 3), tensor.Scalar(1.5))}, {ins: same(ivec(3), tensor.Scalar(2))},
			{ins: same(ivec(2, 2), tensor.ScalarInt(7))}, {ins: same(ivec(3), tensor.ScalarBool(true))},
		},
		"BroadcastTo": {{ins: same(tensor.FromFloats([]float64{1, 2, 3}, 3), ivec(2, 3))}, {ins: same(ints, ivec(2, 2, 3))}},
		"Concat": {
			{attrs: map[string]any{"axis": 0}, ins: same(a, b)},
			{attrs: map[string]any{"axis": 1}, ins: same(a, pos, b)},
		},
		"Split":     {{attrs: map[string]any{"num": 3, "axis": 1}, ins: same(a)}},
		"Gather":    {{ins: same(a, ivec(1, 0, 1))}, {ins: same(ints, tensor.ScalarInt(1))}},
		"SliceRows": {{attrs: map[string]any{"size": 1}, ins: same(a, tensor.ScalarInt(1))}},
		"Tile": {
			{attrs: map[string]any{"reps": 2}, ins: same(a)},
			{attrs: map[string]any{"reps": 3}, ins: same(tensor.Scalar(2))},
		},
		"OneHot":        {{attrs: map[string]any{"depth": 4}, ins: same(ivec(0, 3, 1))}},
		"RandomUniform": {{attrs: map[string]any{"shape": []int{2, 3}}}},
		"SumGrad": {
			{attrs: map[string]any{"axes": []int{0}}, ins: same(tensor.FromFloats([]float64{1, 2, 3}, 3), ivec(2, 3))},
			{attrs: map[string]any{"axes": []int{1}, "keep_dims": true}, ins: same(tensor.FromFloats([]float64{1, 2}, 2, 1), ivec(2, 3))},
		},
		"GatherGrad": {{ins: same(ivec(1, 0), a, ivec(4, 3))}},
		"SliceAxis": {
			{attrs: map[string]any{"axis": 1}, ins: same(a, tensor.ScalarInt(1), tensor.ScalarInt(2))},
			{attrs: map[string]any{"axis": 0}, ins: same(a, tensor.ScalarInt(0), tensor.ScalarInt(1))},
		},
		"SliceAxisGrad": {{attrs: map[string]any{"axis": 1}, ins: same(tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2), a, tensor.ScalarInt(1))}},
		"SliceRowsGrad": {{ins: same(tensor.FromFloats([]float64{1, 2, 3}, 1, 3), a, tensor.ScalarInt(1))}},
		"TileGrad":      {{attrs: map[string]any{"reps": 2}, ins: same(tensor.Full(1, 4, 3), a)}},
	}
	for _, op := range []string{"Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "Mod",
		"Greater", "GreaterEqual", "Less", "LessEqual", "Equal", "NotEqual"} {
		m[op] = bin
	}
	for _, op := range []string{"Neg", "Abs", "Exp", "Log", "Sqrt", "Square", "Sigmoid", "Tanh", "Relu", "Sign"} {
		m[op] = un
	}
	m["Softmax"], m["LogSoftmax"] = un[:1], un[:1] // float only
	m["SigmoidGrad"] = []sample{{ins: same(pos, a)}}
	m["TanhGrad"] = m["SigmoidGrad"]
	m["StopGradient"], m["RandomNormal"] = m["Identity"], m["RandomUniform"]
	return m
}
