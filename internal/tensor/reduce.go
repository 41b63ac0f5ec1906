package tensor

import (
	"fmt"
	"math"
)

// normalizeAxes converts possibly-negative axes to canonical form, sorted and
// deduplicated, stored in buf when it is large enough. Empty axes means all
// axes.
func normalizeAxes(buf []int, rank int, axes []int) ([]int, error) {
	out := buf[:0]
	if len(axes) == 0 {
		for i := 0; i < rank; i++ {
			out = append(out, i)
		}
		return out, nil
	}
	for _, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			return nil, fmt.Errorf("tensor: axis %d out of range for rank %d", a, rank)
		}
		// Insert in order, unless already present.
		j := len(out)
		for j > 0 && out[j-1] > a {
			j--
		}
		if j > 0 && out[j-1] == a {
			continue
		}
		out = append(out, 0)
		copy(out[j+1:], out[j:])
		out[j] = a
	}
	return out, nil
}

// reduce folds t over the given axes: every output element starts at init
// and takes its inputs in the order they lie in t, so a sum adds in the same
// order whatever the axes. A nil fn is addition, with a loop of its own.
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
	var abuf [walkInline]int
	ax, err := normalizeAxes(abuf[:0], t.Rank(), axes)
	if err != nil {
		return nil, err
	}
	// outSt is how a step along each axis of t moves through the output:
	// its row-major stride where the axis is kept, 0 where it is reduced.
	var obuf, sbuf [walkInline]int
	outSt, outShape := keptStrides(sbuf[:0], t.shape, ax), obuf[:0]
	for i, d := range t.shape {
		if len(ax) > 0 && ax[0] == i {
			ax = ax[1:]
			if !keepDims {
				continue
			}
			d = 1
		}
		outShape = append(outShape, d)
	}
	out := Alloc(Float, outShape...)
	for i := range out.F {
		out.F[i] = init
	}
	var wbuf [walkInline]walkAxis
	w := newWalker(wbuf[:0], t.shape, outSt, nil)
	for pos := 0; w.next(); pos += w.run {
		in, dst := t.F[pos:pos+w.run], out.F[w.a:]
		switch {
		case w.ia == 0 && fn == nil: // the run folds into one output element
			for _, v := range in {
				dst[0] += v
			}
		case w.ia == 0:
			for _, v := range in {
				dst[0] = fn(dst[0], v)
			}
		case fn == nil:
			for i, v := range in {
				dst[i] += v
			}
		default:
			for i, v := range in {
				dst[i] = fn(dst[i], v)
			}
		}
	}
	return out, nil
}

// ReduceSum sums over axes (all axes if none given).
func ReduceSum(t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
	return reduce(t, axes, keepDims, 0, nil)
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
	var abuf [walkInline]int
	ax, _ := normalizeAxes(abuf[:0], t.Rank(), axes)
	count := 1
	for _, a := range ax {
		count *= t.shape[a]
	}
	if count == 0 {
		count = 1
	}
	// s is this call's own buffer: divide in place (an int sum comes back
	// as a new tensor, so s is returned to the pool).
	out, err := unaryFloatInto("ReduceMean", s, s, opFn, func(x float64) float64 { return x / float64(count) })
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
	// Walking t in flat order, the first operand is the output position
	// (stride 0 along axis) and the second the coordinate on axis itself
	// (stride 1 along it, 0 elsewhere).
	var obuf, abuf, bbuf [walkInline]int
	outSt, axSt := keptStrides(abuf[:0], t.shape, []int{axis}), append(bbuf[:0], t.shape...)
	clear(axSt)
	axSt[axis] = 1
	outShape := append(append(obuf[:0], t.shape[:axis]...), t.shape[axis+1:]...)
	out := NewFromPool(Int, outShape...)
	best := Alloc(Float, outShape...)
	for i := range best.F {
		best.F[i] = math.Inf(-1)
	}
	var wbuf [walkInline]walkAxis
	w := newWalker(wbuf[:0], t.shape, outSt, axSt)
	for pos := 0; w.next(); pos += w.run {
		o, at := w.a, w.b
		for _, v := range t.F[pos : pos+w.run] {
			if v > best.F[o] {
				best.F[o], out.I[o] = v, int64(at)
			}
			o, at = o+w.ia, at+w.ib
		}
	}
	Recycle(best)
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
	return unaryFloatInto("LogSoftmax", sm, sm, opFn, math.Log) // in place: sm is ours
}
