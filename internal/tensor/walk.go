package tensor

// walkAxis is one outer axis of a walk: its extent, the odometer's position
// on it, and how far one step along it moves each operand.
type walkAxis struct {
	n, i   int
	sa, sb int
}

// walker visits a row-major shape in flat order, one innermost run at a
// time, and tracks where up to two operands sit at the start of each run.
// An operand is described by one element stride per axis of the walked
// shape: its own row-major stride where it follows the axis, 0 where it is
// broadcast along it, a permuted stride for a transpose. Every kernel that
// pairs the elements of differently laid-out tensors (broadcasting binaries,
// BroadcastTo, Transpose, reductions, ArgMax) is a typed loop over these
// runs; none computes an index per element.
//
// Size-1 axes are dropped and adjacent axes that both operands cross
// contiguously are merged, so [16,256]+[256] is 16 runs of 256 and two
// same-shaped operands are one run.
//
//	for w.next() {
//		// elements [pos, pos+w.run) of the walked shape pair with
//		// a[w.a + i*w.ia] and b[w.b + i*w.ib], i in [0, w.run)
//		pos += w.run
//	}
type walker struct {
	outer  []walkAxis // all but the innermost axis, outermost first
	run    int        // elements per innermost run
	ia, ib int        // operand strides inside a run
	a, b   int        // operand offsets at the start of the current run
	left   int        // runs not yet visited
	fresh  bool       // next has not been called
}

// walkInline is the rank a kernel handles without touching the heap: kernels
// keep shapes, strides and the walk's axes in stack arrays of this size and
// pass them as buf (anything deeper spills to the heap through append).
const walkInline = 6

// newWalker prepares a walk over shape. sa and sb hold one stride per axis
// of shape; sb may be nil when there is one operand. buf is scratch for the
// outer axes (appended to, so a deeper walk than its capacity still works).
func newWalker(buf []walkAxis, shape, sa, sb []int) walker {
	w := walker{outer: buf[:0], run: 1, left: 1, fresh: true}
	inner := false // an innermost axis has been chosen
	for d := len(shape) - 1; d >= 0; d-- {
		n := shape[d]
		if n == 1 {
			continue
		}
		if n == 0 {
			w.left = 0
			return w
		}
		x, y := sa[d], 0
		if sb != nil {
			y = sb[d]
		}
		last := len(w.outer) - 1
		switch {
		case !inner:
			w.run, w.ia, w.ib, inner = n, x, y, true
			continue
		case last < 0 && x == w.ia*w.run && y == w.ib*w.run:
			w.run *= n // both operands cross this axis as more of the same run
			continue
		case last >= 0 && x == w.outer[last].sa*w.outer[last].n && y == w.outer[last].sb*w.outer[last].n:
			w.outer[last].n *= n
		default:
			w.outer = append(w.outer, walkAxis{n: n, sa: x, sb: y})
		}
		w.left *= n
	}
	// The axes were collected innermost first; the odometer wants the
	// fastest-moving one last.
	for i, j := 0, len(w.outer)-1; i < j; i, j = i+1, j-1 {
		w.outer[i], w.outer[j] = w.outer[j], w.outer[i]
	}
	return w
}

// next advances to the following run; it reports false once the shape is
// exhausted.
func (w *walker) next() bool {
	if w.left == 0 {
		return false
	}
	w.left--
	if w.fresh {
		w.fresh = false
		return true
	}
	for d := len(w.outer) - 1; d >= 0; d-- {
		ax := &w.outer[d]
		ax.i++
		w.a += ax.sa
		w.b += ax.sb
		if ax.i < ax.n {
			break
		}
		w.a -= ax.sa * ax.n
		w.b -= ax.sb * ax.n
		ax.i = 0
	}
	return true
}

// keptStrides returns, per axis of shape, the row-major stride of the tensor
// that remains when the axes listed in dropped (ascending) are removed, and 0
// on those axes themselves; with none dropped, shape's own row-major strides.
// The result is stored in buf when it is large enough.
func keptStrides(buf, shape, dropped []int) []int {
	st := append(buf[:0], shape...)
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		if n := len(dropped); n > 0 && dropped[n-1] == i {
			dropped, st[i] = dropped[:n-1], 0
			continue
		}
		st[i] = acc
		acc *= shape[i]
	}
	return st
}

// broadcastStrides returns, per axis of to, the stride with which a tensor of
// shape from (broadcast-compatible with to, right-aligned) is read: its own
// row-major stride, or 0 where it lacks the axis or has extent 1 there. The
// result is stored in buf when it is large enough.
func broadcastStrides(buf, from, to []int) []int {
	st := append(buf[:0], to...)
	clear(st)
	acc := 1
	for i, j := len(from)-1, len(to)-1; i >= 0; i, j = i-1, j-1 {
		if from[i] != 1 {
			st[j] = acc
		}
		acc *= from[i]
	}
	return st
}

// zipRun writes out[i] = fn(a[..], b[..]) over one run: each operand is
// either contiguous (stride 1) or a single repeated element (stride 0).
func zipRun[A, O any](out []O, a, b []A, ia, ib int, fn func(x, y A) O) {
	switch {
	case ia != 0 && ib != 0:
		a, b = a[:len(out)], b[:len(out)]
		for i := range out {
			out[i] = fn(a[i], b[i])
		}
	case ia != 0:
		a, y := a[:len(out)], b[0]
		for i := range out {
			out[i] = fn(a[i], y)
		}
	default:
		x, b := a[0], b[:len(out)]
		for i := range out {
			out[i] = fn(x, b[i])
		}
	}
}

// gatherRuns writes out[i] = src[offset of i] over every run of w, whose
// walked shape is out's and whose first operand is src: a copy per run where
// src is contiguous along it, a strided read (stride 0 where it is broadcast)
// otherwise — except for the plain matrix transpose, where a strided read
// would touch a new cache line per element and tiles do not.
func gatherRuns[T any](out, src []T, w *walker) {
	if len(w.outer) == 1 && w.outer[0].sa == 1 && w.ia == w.outer[0].n && w.left > 0 {
		transpose2D(out, src, w.run, w.ia)
		return
	}
	for pos := 0; w.next(); pos += w.run {
		run := out[pos : pos+w.run]
		if w.ia == 1 {
			copy(run, src[w.a:])
			continue
		}
		for i, p := 0, w.a; i < len(run); i, p = i+1, p+w.ia {
			run[i] = src[p]
		}
	}
}

// transposeBlock is the tile edge of transpose2D: a 16×16 tile of float64 is
// 2 KiB on each side, so both stay in L1 while one is read by rows and the
// other written by rows.
const transposeBlock = 16

// transpose2D writes the transpose of the row-major src[rows,cols] into
// out[cols,rows], tile by tile.
func transpose2D[T any](out, src []T, rows, cols int) {
	for c0 := 0; c0 < cols; c0 += transposeBlock {
		c1 := min(c0+transposeBlock, cols)
		for r0 := 0; r0 < rows; r0 += transposeBlock {
			r1 := min(r0+transposeBlock, rows)
			for c := c0; c < c1; c++ {
				o := out[c*rows : (c+1)*rows]
				for r, p := r0, r0*cols+c; r < r1; r, p = r+1, p+cols {
					o[r] = src[p]
				}
			}
		}
	}
}

// gather is gatherRuns on whichever backing slice the dtype selects.
func gather(out, src *Tensor, w *walker) {
	switch out.dtype {
	case Float:
		gatherRuns(out.F, src.F, w)
	case Int:
		gatherRuns(out.I, src.I, w)
	case Bool:
		gatherRuns(out.B, src.B, w)
	case Str:
		gatherRuns(out.S, src.S, w)
	}
}
