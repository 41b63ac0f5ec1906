package tensor

import "fmt"

// Concat concatenates tensors along axis. All inputs must share dtype and
// all non-axis dimensions.
func Concat(axis int, ts ...*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: Concat of nothing")
	}
	r := ts[0].Rank()
	if axis < 0 {
		axis += r
	}
	if axis < 0 || axis >= r {
		return nil, fmt.Errorf("tensor: Concat axis %d out of range for rank %d", axis, r)
	}
	outShape := ts[0].Shape()
	for _, t := range ts[1:] {
		if t.Rank() != r || t.dtype != ts[0].dtype {
			return nil, fmt.Errorf("tensor: Concat rank/dtype mismatch")
		}
		for i := 0; i < r; i++ {
			if i == axis {
				continue
			}
			if t.shape[i] != outShape[i] {
				return nil, fmt.Errorf("tensor: Concat dim %d mismatch: %v vs %v", i, outShape, t.shape)
			}
		}
		outShape[axis] += t.shape[axis]
	}
	// Copy by blocks: outer = product of dims before axis; for each outer
	// index, each input contributes one contiguous chunk.
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= outShape[i]
	}
	out := New(ts[0].dtype, outShape...)
	pos := 0
	for o := 0; o < max(outer, 1); o++ {
		for _, t := range ts {
			chunk := t.Size() / max(outer, 1)
			copyElems(out, pos, t, o*chunk, chunk)
			pos += chunk
		}
	}
	return out, nil
}

func copyElems(dst *Tensor, dstOff int, src *Tensor, srcOff, n int) {
	switch dst.dtype {
	case Float:
		copy(dst.F[dstOff:dstOff+n], src.F[srcOff:srcOff+n])
	case Int:
		copy(dst.I[dstOff:dstOff+n], src.I[srcOff:srcOff+n])
	case Bool:
		copy(dst.B[dstOff:dstOff+n], src.B[srcOff:srcOff+n])
	case Str:
		copy(dst.S[dstOff:dstOff+n], src.S[srcOff:srcOff+n])
	}
}

// Split splits t into n equal parts along axis.
func Split(t *Tensor, n, axis int) ([]*Tensor, error) {
	if axis < 0 {
		axis += t.Rank()
	}
	if axis < 0 || axis >= t.Rank() {
		return nil, fmt.Errorf("tensor: Split axis %d out of range for shape %v", axis, t.shape)
	}
	if n <= 0 || t.shape[axis]%n != 0 {
		return nil, fmt.Errorf("tensor: cannot Split dim %d of %v into %d parts", axis, t.shape, n)
	}
	partShape := t.Shape()
	partShape[axis] /= n
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= t.shape[i]
	}
	chunk := NumElements(partShape) / max(outer, 1)
	full := t.Size() / max(outer, 1)
	parts := make([]*Tensor, n)
	for p := range parts {
		parts[p] = New(t.dtype, partShape...)
		for o := 0; o < max(outer, 1); o++ {
			copyElems(parts[p], o*chunk, t, o*full+p*chunk, chunk)
		}
	}
	return parts, nil
}

// SliceRows returns rows [start, start+size) along axis 0.
func SliceRows(t *Tensor, start, size int) (*Tensor, error) {
	if t.Rank() == 0 {
		return nil, fmt.Errorf("tensor: SliceRows on scalar")
	}
	if start < 0 || size < 0 || start+size > t.shape[0] {
		return nil, fmt.Errorf("tensor: SliceRows [%d,%d) out of range for %v", start, start+size, t.shape)
	}
	outShape := t.Shape()
	outShape[0] = size
	out := New(t.dtype, outShape...)
	inner := t.Size() / max(t.shape[0], 1)
	copyElems(out, 0, t, start*inner, size*inner)
	return out, nil
}

// Gather selects rows of t (axis 0) by int indices.
func Gather(t, indices *Tensor) (*Tensor, error) {
	if indices.dtype != Int {
		return nil, fmt.Errorf("tensor: Gather indices must be int, got %v", indices.dtype)
	}
	if t.Rank() == 0 {
		return nil, fmt.Errorf("tensor: Gather on scalar")
	}
	outShape := append(indices.Shape(), t.shape[1:]...)
	out := New(t.dtype, outShape...)
	inner := t.Size() / max(t.shape[0], 1)
	for i, ix := range indices.I {
		if ix < 0 || int(ix) >= t.shape[0] {
			return nil, fmt.Errorf("tensor: Gather index %d out of range [0,%d)", ix, t.shape[0])
		}
		copyElems(out, i*inner, t, int(ix)*inner, inner)
	}
	return out, nil
}

// ScatterAddRows adds each row of updates into dst at the given row indices
// (dst is modified in place; dst owns its buffer).
func ScatterAddRows(dst, indices, updates *Tensor) error {
	if indices.dtype != Int || dst.dtype != Float || updates.dtype != Float {
		return fmt.Errorf("tensor: ScatterAddRows dtype mismatch")
	}
	inner := dst.Size() / max(dst.shape[0], 1)
	if updates.Size() != indices.Size()*inner {
		return fmt.Errorf("tensor: ScatterAddRows shapes: dst %v indices %v updates %v", dst.shape, indices.shape, updates.shape)
	}
	for i, ix := range indices.I {
		if ix < 0 || int(ix) >= dst.shape[0] {
			return fmt.Errorf("tensor: ScatterAddRows index %d out of range", ix)
		}
		d := dst.F[int(ix)*inner : (int(ix)+1)*inner]
		u := updates.F[i*inner : (i+1)*inner]
		for j := range d {
			d[j] += u[j]
		}
	}
	return nil
}

// Stack stacks equal-shaped tensors along a new axis 0. The caller names the
// storage of the result, every element of which is written: Alloc for a
// kernel whose output the executor recycles, New for a holder's (a
// TensorArray's stacked value is the collector's).
func Stack(alloc func(DType, ...int) *Tensor, ts ...*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: Stack of nothing")
	}
	for _, t := range ts[1:] {
		if t.dtype != ts[0].dtype || !SameShape(t, ts[0]) {
			return nil, fmt.Errorf("tensor: Stack mismatch: %v vs %v", ts[0], t)
		}
	}
	outShape := append([]int{len(ts)}, ts[0].shape...)
	out := alloc(ts[0].dtype, outShape...)
	inner := ts[0].Size()
	for i, t := range ts {
		copyElems(out, i*inner, t, 0, inner)
	}
	return out, nil
}

// Unstack splits t along axis 0 into t.Dim(0) tensors, each fully written
// into storage from alloc (see Stack).
func Unstack(alloc func(DType, ...int) *Tensor, t *Tensor) ([]*Tensor, error) {
	if t.Rank() == 0 {
		return nil, fmt.Errorf("tensor: Unstack on scalar")
	}
	n := t.shape[0]
	inner := t.Size() / max(n, 1)
	innerShape := t.shape[1:]
	out := make([]*Tensor, n)
	for i := 0; i < n; i++ {
		out[i] = alloc(t.dtype, innerShape...)
		copyElems(out[i], 0, t, i*inner, inner)
	}
	return out, nil
}

// ExpandDims inserts a size-1 dimension at axis.
func ExpandDims(t *Tensor, axis int) (*Tensor, error) {
	r := t.Rank()
	if axis < 0 {
		axis += r + 1
	}
	if axis < 0 || axis > r {
		return nil, fmt.Errorf("tensor: ExpandDims axis %d out of range for rank %d", axis, r)
	}
	shape := make([]int, 0, r+1)
	shape = append(shape, t.shape[:axis]...)
	shape = append(shape, 1)
	shape = append(shape, t.shape[axis:]...)
	return t.Reshape(shape...)
}

// Squeeze removes size-1 dimensions (all of them if axes empty).
func Squeeze(t *Tensor, axes ...int) (*Tensor, error) {
	drop := make(map[int]bool)
	if len(axes) == 0 {
		for i, d := range t.shape {
			if d == 1 {
				drop[i] = true
			}
		}
	} else {
		for _, a := range axes {
			if a < 0 {
				a += t.Rank()
			}
			if a < 0 || a >= t.Rank() || t.shape[a] != 1 {
				return nil, fmt.Errorf("tensor: Squeeze axis %d invalid for %v", a, t.shape)
			}
			drop[a] = true
		}
	}
	var shape []int
	for i, d := range t.shape {
		if !drop[i] {
			shape = append(shape, d)
		}
	}
	return t.Reshape(shape...)
}

// Tile repeats t reps times along axis 0.
func Tile(t *Tensor, reps int) (*Tensor, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("tensor: Tile reps must be positive")
	}
	if t.Rank() == 0 {
		e, _ := t.Reshape(1)
		out, err := Tile(e, reps)
		Recycle(e)
		return out, err
	}
	outShape := t.Shape()
	outShape[0] *= reps
	out := New(t.dtype, outShape...)
	for i := 0; i < reps; i++ {
		copyElems(out, i*t.Size(), t, 0, t.Size())
	}
	return out, nil
}

// OneHot encodes int indices [n] as float [n, depth].
func OneHot(indices *Tensor, depth int) (*Tensor, error) {
	if indices.dtype != Int {
		return nil, fmt.Errorf("tensor: OneHot indices must be int")
	}
	n := indices.Size()
	out := Zeros(append(indices.Shape(), depth)...)
	for i := 0; i < n; i++ {
		ix := indices.I[i]
		if ix < 0 || int(ix) >= depth {
			return nil, fmt.Errorf("tensor: OneHot index %d out of depth %d", ix, depth)
		}
		out.F[i*depth+int(ix)] = 1
	}
	return out, nil
}

// ShapeTensor returns t's shape as a 1-D int tensor (the Shape op). Like
// SizeTensor, RankTensor and DimTensor it reads t's shape only and builds its
// result in pool storage.
func ShapeTensor(t *Tensor) *Tensor {
	out := Alloc(Int, t.Rank())
	for i, d := range t.shape {
		out.I[i] = int64(d)
	}
	return out
}

// SizeTensor returns t's element count as a scalar int tensor.
func SizeTensor(t *Tensor) *Tensor { return pooledScalarInt(t.Size()) }

// RankTensor returns t's rank as a scalar int tensor.
func RankTensor(t *Tensor) *Tensor { return pooledScalarInt(t.Rank()) }

// DimTensor returns the extent of t's axis as a scalar int tensor.
func DimTensor(t *Tensor, axis int) *Tensor { return pooledScalarInt(t.shape[axis]) }

func pooledScalarInt(v int) *Tensor {
	out := Alloc(Int)
	out.I[0] = int64(v)
	return out
}

// BroadcastTo explicitly broadcasts t to shape.
func BroadcastTo(t *Tensor, shape []int) (*Tensor, error) {
	var sbuf [walkInline]int
	bshape, err := broadcastShape(sbuf[:0], t.shape, shape)
	if err != nil || !ShapeEq(bshape, shape) {
		return nil, fmt.Errorf("tensor: cannot broadcast %v to %v", t.shape, cloneShape(shape))
	}
	out := New(t.dtype, shape...)
	var wbuf [walkInline]walkAxis
	w := newWalker(wbuf[:0], shape, broadcastStrides(sbuf[:0], t.shape, shape), nil)
	gather(out, t, &w)
	return out, nil
}

// UnbroadcastTo reduces (sums) g down to shape, inverting an implicit
// broadcast — the standard gradient helper for broadcasting binary ops.
// dcfvet:allow deadapi=benchmark/ times it for tensor.unbroadcast_us
func UnbroadcastTo(g *Tensor, shape []int) (*Tensor, error) {
	return UnbroadcastInto(nil, g, shape)
}

// UnbroadcastInto is UnbroadcastTo handing g itself back when nothing has to
// be summed and dst is g (the buffer-forwarding contract: the caller owns g
// exclusively); otherwise the result is a pooled tensor of its own. The axes
// g has beyond shape are summed outermost first, then each axis shape holds
// at 1, one reduction per axis.
func UnbroadcastInto(dst, g *Tensor, shape []int) (*Tensor, error) {
	if ShapeEq(g.shape, shape) {
		if dst == g {
			return g, nil
		}
		return pooledCopy(g), nil
	}
	cur := g
	sum := func(axis int, keep bool) error {
		next, err := ReduceSum(cur, []int{axis}, keep)
		if cur != g {
			Recycle(cur) // an intermediate of this call
		}
		cur = next
		return err
	}
	for cur.Rank() > len(shape) {
		if err := sum(0, false); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cur.Rank(); i++ {
		if shape[i] == 1 && cur.shape[i] != 1 {
			if err := sum(i, true); err != nil {
				return nil, err
			}
		}
	}
	if !ShapeEq(cur.shape, shape) {
		got := cur.Shape()
		if cur != g {
			Recycle(cur)
		}
		return nil, fmt.Errorf("tensor: UnbroadcastTo %v -> %v failed (got %v)", g.shape, cloneShape(shape), got)
	}
	return cur, nil
}
