package ops

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// poolLive is the buffer pool's live-bytes gauge, as /metrics exports it.
var poolLive = metrics.Default().Gauge("tensor_pool_live_bytes")

// freshSample is one invocation of a Fresh op: tensors for its inputs (a
// func, so every run gets its own) and the node attributes.
type freshSample struct {
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

// freshSamples covers every op registered Fresh; TestFreshOutputsComeFromPool
// fails for a Fresh op without an entry, so a new one cannot skip the check.
func freshSamples() map[string][]freshSample {
	a, b := mat(1, 2, 3, 4, 5, 6), mat(6, 5, 4, 3, 2, 1)
	pos := mat(.5, 1, 1.5, 2, 2.5, 3)
	ints := tensor.FromInts([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	bools := tensor.FromBools([]bool{true, false, true, false, true, false}, 2, 3)
	// Int operands take the kernels' cast-to-float-and-back paths, whose
	// intermediates must go back to the pool too.
	bin := []freshSample{{ins: same(a, b)}, {ins: same(a, tensor.Scalar(2))},
		{ins: same(ints, ints)}, {ins: same(ints, tensor.ScalarInt(2))}}
	un := []freshSample{{ins: same(pos)}, {ins: same(ints)}}
	logical := []freshSample{{ins: same(bools, bools)}}
	reduce := []freshSample{
		{attrs: map[string]any{"axes": []int{0}}, ins: same(a)},
		{attrs: map[string]any{"axes": []int{1}, "keep_dims": true}, ins: same(a)},
		{ins: same(a)},
		{attrs: map[string]any{"axes": []int{1}}, ins: same(ints)},
	}
	m := map[string][]freshSample{
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
			{ins: same(a, tensor.FromInts([]int64{2, 3}, 2))},
			{ins: same(a, tensor.FromInts([]int64{3}, 1))},
			{ins: same(a, tensor.FromInts([]int64{2, 1}, 2))},
			{ins: same(ints, tensor.FromInts([]int64{1, 3}, 2))},
		},
		"Reshape": {
			{attrs: map[string]any{"shape": []int{3, 2}}, ins: same(a)},
			{attrs: map[string]any{"shape": []int{-1}}, ins: same(bools)},
			{ins: same(ints, tensor.FromInts([]int64{6, 1}, 2))},
		},
		"Shape": un, "Size": un, "Rank": un,
		"ShapeDim":   {{attrs: map[string]any{"axis": -1}, ins: same(a)}},
		"Pack":       {{ins: same(a, b, pos)}, {ins: same(ints)}, {ins: same(bools, bools)}},
		"Unpack":     {{attrs: map[string]any{"num": 2}, ins: same(a)}, {attrs: map[string]any{"num": 2}, ins: same(bools)}},
		"ExpandDims": {{attrs: map[string]any{"axis": 1}, ins: same(a)}},
		"Squeeze":    {{ins: same(tensor.FromFloats([]float64{1, 2, 3}, 1, 3, 1))}},
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
	}
	for _, op := range []string{"Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "Mod",
		"Greater", "GreaterEqual", "Less", "LessEqual", "Equal", "NotEqual"} {
		m[op] = bin
	}
	for _, op := range []string{"Neg", "Abs", "Exp", "Log", "Sqrt", "Square", "Sigmoid", "Tanh", "Relu", "Sign"} {
		m[op] = un
	}
	m["Softmax"], m["LogSoftmax"] = un[:1], un[:1] // float only
	m["SigmoidGrad"] = []freshSample{{ins: same(pos, a)}}
	m["TanhGrad"] = m["SigmoidGrad"]
	return m
}

// TestFreshOutputsComeFromPool runs every registered Fresh op and then does
// what the executor does with the result — recycles owned inputs the kernel
// did not forward, and later the output — and requires the pool's live-byte
// gauge to be back exactly where it started. An output built with New or
// Clone instead of Alloc/NewFromPool makes Recycle subtract bytes no Alloc
// added, and the gauge (and the peak derived from it) drifts low.
func TestFreshOutputsComeFromPool(t *testing.T) {
	samples := freshSamples()
	for _, name := range slices.Sorted(maps.Keys(registry)) {
		def := registry[name]
		if !def.Fresh {
			continue
		}
		if len(samples[name]) == 0 {
			t.Errorf("%s is registered Fresh but has no entry in freshSamples", name)
			continue
		}
		for si, s := range samples[name] {
			// Once with borrowed inputs (nothing forwardable), once with
			// pool-allocated inputs the kernel may take as its output.
			for _, owned := range []bool{false, true} {
				start := poolLive.Value()
				ctx := &KernelContext{OpName: name, NodeName: name, Attrs: s.attrs, Env: newFakeEnv()}
				for i, in := range s.ins() {
					if owned {
						in, _ = tensor.Cast(in, in.DType()) // a pool-backed copy
						ctx.FwdMask |= 1 << uint(i)
					}
					ctx.In = append(ctx.In, TensorVal(in))
				}
				out, err := def.Kernel(ctx)
				if err != nil || len(out) == 0 {
					t.Fatalf("%s sample %d: out %v, err %v", name, si, out, err)
				}
				forwarded := map[*tensor.Tensor]bool{}
				for _, o := range out {
					if o.T == nil {
						t.Fatalf("%s sample %d: out %v", name, si, out)
					}
					forwarded[o.T] = true
					tensor.Recycle(o.T)
				}
				if owned {
					for _, in := range ctx.In {
						if !forwarded[in.T] {
							tensor.Recycle(in.T)
						}
					}
				}
				if got := poolLive.Value(); got != start {
					t.Errorf("%s sample %d (owned inputs %v): pool live bytes moved by %d", name, si, owned, got-start)
				}
			}
		}
	}
}
