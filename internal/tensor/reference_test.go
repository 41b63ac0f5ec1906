package tensor

// The kernels this package had before the strided walker and the
// transposed-operand MatMul, kept verbatim as the references the differential
// suite (differential_test.go) compares against bit for bit: one index
// computed per element with a div/mod chain, one dtype switch per element,
// one function call per element. They are slow and obviously right.

import (
	"fmt"
	"math"
)

// strides returns row-major strides for shape.
func strides(shape []int) []int {
	st := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= shape[i]
	}
	return st
}

// broadcastIndexer returns a function mapping a flat index in the broadcast
// output shape to the flat index in a tensor of shape `from`.
func broadcastIndexer(from, to []int) func(int) int {
	if ShapeEq(from, to) {
		return func(i int) int { return i }
	}
	fromSt := strides(from)
	toSt := strides(to)
	offset := len(to) - len(from)
	return func(flat int) int {
		src := 0
		for i, st := range toSt {
			ix := flat / st % to[i]
			j := i - offset
			if j < 0 {
				continue
			}
			if from[j] == 1 {
				continue
			}
			src += ix * fromSt[j]
		}
		return src
	}
}

// refBroadcastShapes is the old BroadcastShapes.
func refBroadcastShapes(a, b []int) ([]int, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", a, b)
		}
	}
	return out, nil
}

// refZip is the old body shared by binaryFloatInto, compare, logical and
// AddInt: out[i] = fn(a[ai(i)], b[bi(i)]).
func refZip[A, O any](out []O, a, b []A, shape, ashape, bshape []int, fn func(x, y A) O) {
	ai := broadcastIndexer(ashape, shape)
	bi := broadcastIndexer(bshape, shape)
	for i := range out {
		out[i] = fn(a[ai(i)], b[bi(i)])
	}
}

// refBinary is the old float path of binaryFloatInto, without dst.
func refBinary(a, b *Tensor, fn func(x, y float64) float64) (*Tensor, error) {
	shape, err := refBroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, err
	}
	out := New(Float, shape...)
	refZip(out.F, a.F, b.F, shape, a.shape, b.shape, fn)
	return out, nil
}

// matmul2d computes out = A(mxk) * B(kxn) with an ikj loop order for cache
// friendliness; out must be zeroed. Its zero skip is the one behaviour the
// new kernels do not reproduce — 0·Inf and 0·NaN are NaN now — and on finite
// inputs it never changed a bit, which the differential suite shows by
// feeding it plenty of zeros of both signs.
func matmul2d(out, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// refMatMul is the old MatMul (rank 2 and batched rank 3).
func refMatMul(a, b *Tensor) (*Tensor, error) {
	switch {
	case a.Rank() == 2 && b.Rank() == 2:
		m, k := a.shape[0], a.shape[1]
		k2, n := b.shape[0], b.shape[1]
		if k != k2 {
			return nil, fmt.Errorf("tensor: MatMul inner dims mismatch: %v x %v", a.shape, b.shape)
		}
		out := New(Float, m, n)
		matmul2d(out.F, a.F, b.F, m, k, n)
		return out, nil
	case a.Rank() == 3 && b.Rank() == 3:
		bt, m, k := a.shape[0], a.shape[1], a.shape[2]
		bt2, k2, n := b.shape[0], b.shape[1], b.shape[2]
		if bt != bt2 || k != k2 {
			return nil, fmt.Errorf("tensor: batched MatMul shape mismatch: %v x %v", a.shape, b.shape)
		}
		out := New(Float, bt, m, n)
		for i := 0; i < bt; i++ {
			matmul2d(out.F[i*m*n:(i+1)*m*n], a.F[i*m*k:(i+1)*m*k], b.F[i*k*n:(i+1)*k*n], m, k, n)
		}
		return out, nil
	}
	return nil, fmt.Errorf("tensor: MatMul requires rank-2 or rank-3 tensors, got %v and %v", a.shape, b.shape)
}

// refTranspose is the old Transpose.
func refTranspose(t *Tensor, perm ...int) (*Tensor, error) {
	if len(perm) == 0 {
		if t.Rank() != 2 {
			return nil, fmt.Errorf("tensor: default Transpose requires rank 2, got %v", t.shape)
		}
		perm = []int{1, 0}
	}
	if len(perm) != t.Rank() {
		return nil, fmt.Errorf("tensor: Transpose perm %v does not match rank %d", perm, t.Rank())
	}
	seen := make([]bool, len(perm))
	newShape := make([]int, len(perm))
	for i, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return nil, fmt.Errorf("tensor: invalid Transpose perm %v", perm)
		}
		seen[p] = true
		newShape[i] = t.shape[p]
	}
	out := New(t.dtype, newShape...)
	oldSt := strides(t.shape)
	newSt := strides(newShape)
	n := t.Size()
	for flat := 0; flat < n; flat++ {
		src := 0
		for i, st := range newSt {
			ix := flat / st % newShape[i]
			src += ix * oldSt[perm[i]]
		}
		switch t.dtype {
		case Float:
			out.F[flat] = t.F[src]
		case Int:
			out.I[flat] = t.I[src]
		case Bool:
			out.B[flat] = t.B[src]
		case Str:
			out.S[flat] = t.S[src]
		}
	}
	return out, nil
}

// refNormalizeAxes is the old normalizeAxes.
func refNormalizeAxes(rank int, axes []int) ([]int, error) {
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

// refReduce is the old float path of reduce.
func refReduce(t *Tensor, axes []int, keepDims bool, init float64, fn func(acc, v float64) float64) (*Tensor, error) {
	ax, err := refNormalizeAxes(t.Rank(), axes)
	if err != nil {
		return nil, err
	}
	reduced := make([]bool, t.Rank())
	for _, a := range ax {
		reduced[a] = true
	}
	outShape, fullShape := []int{}, []int{}
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
	out := New(Float, outShape...)
	for i := range out.F {
		out.F[i] = init
	}
	idx := broadcastIndexer(fullShape, t.shape)
	for i, v := range t.F {
		out.F[idx(i)] = fn(out.F[idx(i)], v)
	}
	return out, nil
}

func refReduceSum(t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
	return refReduce(t, axes, keepDims, 0, func(a, v float64) float64 { return a + v })
}

// refReduceMean is the old ReduceMean.
func refReduceMean(t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
	s, err := refReduceSum(t, axes, keepDims)
	if err != nil {
		return nil, err
	}
	ax, _ := refNormalizeAxes(t.Rank(), axes)
	count := 1
	for _, a := range ax {
		count *= t.shape[a]
	}
	if count == 0 {
		count = 1
	}
	for i, x := range s.F {
		s.F[i] = x / float64(count)
	}
	return s, nil
}

// refArgMax is the old ArgMax.
func refArgMax(t *Tensor, axis int) (*Tensor, error) {
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
	out := New(Int, outShape...)
	best := make([]float64, out.Size())
	for i := range best {
		best[i] = math.Inf(-1)
	}
	st := strides(t.shape)
	for flat, v := range t.F {
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

// refBroadcastTo is the old BroadcastTo.
func refBroadcastTo(t *Tensor, shape []int) (*Tensor, error) {
	bshape, err := refBroadcastShapes(t.shape, shape)
	if err != nil || !ShapeEq(bshape, shape) {
		return nil, fmt.Errorf("tensor: cannot broadcast %v to %v", t.shape, shape)
	}
	out := New(t.dtype, shape...)
	idx := broadcastIndexer(t.shape, shape)
	n := out.Size()
	for i := 0; i < n; i++ {
		src := idx(i)
		switch t.dtype {
		case Float:
			out.F[i] = t.F[src]
		case Int:
			out.I[i] = t.I[src]
		case Bool:
			out.B[i] = t.B[src]
		case Str:
			out.S[i] = t.S[src]
		}
	}
	return out, nil
}

// refUnbroadcastTo is the old UnbroadcastTo: a chain of single-axis
// reductions, so the order in which partial sums are formed is part of what
// it pins.
func refUnbroadcastTo(g *Tensor, shape []int) (*Tensor, error) {
	if ShapeEq(g.shape, shape) {
		return g.Clone(), nil
	}
	cur := g
	var err error
	for cur.Rank() > len(shape) {
		cur, err = refReduceSum(cur, []int{0}, false)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < cur.Rank(); i++ {
		if shape[i] == 1 && cur.shape[i] != 1 {
			cur, err = refReduceSum(cur, []int{i}, true)
			if err != nil {
				return nil, err
			}
		}
	}
	if !ShapeEq(cur.shape, shape) {
		return nil, fmt.Errorf("tensor: UnbroadcastTo %v -> %v failed (got %v)", g.shape, shape, cur.shape)
	}
	return cur, nil
}
