package tensor

import (
	"fmt"
	"math"
)

// normalizeAxes converts possibly-negative axes to canonical form, sorted and
// deduplicated. Empty axes means all axes.
func normalizeAxes(rank int, axes []int) ([]int, error) {
	if len(axes) == 0 {
		out := make([]int, rank)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	seen := make(map[int]bool)
	var out []int
	for _, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			return nil, fmt.Errorf("tensor: axis %d out of range for rank %d", a, rank)
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// reduce applies a fold over the given axes.
func reduce(t *Tensor, axes []int, keepDims bool, init float64, fn func(acc, v float64) float64) (*Tensor, error) {
	if t.dtype != Float {
		if t.dtype == Int {
			f, _ := Cast(t, Float)
			r, err := reduce(f, axes, keepDims, init, fn)
			Recycle(f)
			if err != nil {
				return nil, err
			}
			out, err := Cast(r, Int)
			Recycle(r)
			return out, err
		}
		return nil, fmt.Errorf("tensor: reduce requires numeric tensor, got %v", t.dtype)
	}
	ax, err := normalizeAxes(t.Rank(), axes)
	if err != nil {
		return nil, err
	}
	reduced := make([]bool, t.Rank())
	for _, a := range ax {
		reduced[a] = true
	}
	var outShape, fullShape []int
	for i, d := range t.shape {
		if reduced[i] {
			fullShape = append(fullShape, 1)
			if keepDims {
				outShape = append(outShape, 1)
			}
		} else {
			fullShape = append(fullShape, d)
			outShape = append(outShape, d)
		}
	}
	out := Alloc(Float, outShape...)
	for i := range out.F {
		out.F[i] = init
	}
	idx := broadcastIndexer(fullShape, t.shape)
	for i, v := range t.F {
		out.F[idx(i)] = fn(out.F[idx(i)], v)
	}
	return out, nil
}

// ReduceSum sums over axes (all axes if none given).
func ReduceSum(t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
	return reduce(t, axes, keepDims, 0, func(a, v float64) float64 { return a + v })
}

// ReduceMax takes the max over axes.
func ReduceMax(t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
	return reduce(t, axes, keepDims, math.Inf(-1), math.Max)
}

// ReduceMin takes the min over axes.
func ReduceMin(t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
	return reduce(t, axes, keepDims, math.Inf(1), math.Min)
}

// ReduceMean averages over axes.
func ReduceMean(t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
	s, err := ReduceSum(t, axes, keepDims)
	if err != nil {
		return nil, err
	}
	ax, _ := normalizeAxes(t.Rank(), axes)
	count := 1
	for _, a := range ax {
		count *= t.shape[a]
	}
	if count == 0 {
		count = 1
	}
	// s is this call's own buffer: divide in place (an int sum comes back
	// as a new tensor, so s is returned to the pool).
	out, err := unaryFloatInto("ReduceMean", s, s, func(x float64) float64 { return x / float64(count) })
	if out != s {
		Recycle(s)
	}
	return out, err
}

// ArgMax returns the int64 index of the max along axis.
func ArgMax(t *Tensor, axis int) (*Tensor, error) {
	if t.dtype != Float {
		return nil, fmt.Errorf("tensor: ArgMax requires float tensor")
	}
	if axis < 0 {
		axis += t.Rank()
	}
	if axis < 0 || axis >= t.Rank() {
		return nil, fmt.Errorf("tensor: ArgMax axis %d out of range for shape %v", axis, t.shape)
	}
	outShape := make([]int, 0, t.Rank()-1)
	for i, d := range t.shape {
		if i != axis {
			outShape = append(outShape, d)
		}
	}
	out := NewFromPool(Int, outShape...)
	best := make([]float64, out.Size())
	for i := range best {
		best[i] = math.Inf(-1)
	}
	st := strides(t.shape)
	for flat, v := range t.F {
		// Compute the output flat index by dropping the axis coordinate.
		o := 0
		axIx := 0
		for i, s := range st {
			ix := flat / s % t.shape[i]
			if i == axis {
				axIx = ix
				continue
			}
			o = o*t.shape[i] + ix
		}
		if v > best[o] {
			best[o] = v
			out.I[o] = int64(axIx)
		}
	}
	return out, nil
}

// Softmax computes softmax along the last axis.
func Softmax(t *Tensor) (*Tensor, error) {
	if t.dtype != Float || t.Rank() == 0 {
		return nil, fmt.Errorf("tensor: Softmax requires a float tensor of rank>=1")
	}
	out := Alloc(Float, t.shape...)
	inner := t.shape[t.Rank()-1]
	rows := t.Size() / inner
	for r := 0; r < rows; r++ {
		row := t.F[r*inner : (r+1)*inner]
		orow := out.F[r*inner : (r+1)*inner]
		mx := math.Inf(-1)
		for _, v := range row {
			mx = math.Max(mx, v)
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(v - mx)
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
	return out, nil
}

// LogSoftmax computes log(softmax) along the last axis, numerically stably.
func LogSoftmax(t *Tensor) (*Tensor, error) {
	sm, err := Softmax(t)
	if err != nil {
		return nil, err
	}
	return unaryFloatInto("LogSoftmax", sm, sm, math.Log) // in place: sm is ours
}
