package tensor

import "fmt"

// MatMul multiplies two rank-2 float tensors: [m,k] x [k,n] -> [m,n].
// It also accepts batched rank-3 inputs [b,m,k] x [b,k,n] -> [b,m,n].
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.dtype != Float || b.dtype != Float {
		return nil, fmt.Errorf("tensor: MatMul requires float tensors, got %v and %v", a.dtype, b.dtype)
	}
	switch {
	case a.Rank() == 2 && b.Rank() == 2:
		m, k := a.shape[0], a.shape[1]
		k2, n := b.shape[0], b.shape[1]
		if k != k2 {
			return nil, fmt.Errorf("tensor: MatMul inner dims mismatch: %v x %v", a.shape, b.shape)
		}
		out := NewFromPool(Float, m, n)
		matmul2d(out.F, a.F, b.F, m, k, n)
		return out, nil
	case a.Rank() == 3 && b.Rank() == 3:
		bt, m, k := a.shape[0], a.shape[1], a.shape[2]
		bt2, k2, n := b.shape[0], b.shape[1], b.shape[2]
		if bt != bt2 || k != k2 {
			return nil, fmt.Errorf("tensor: batched MatMul shape mismatch: %v x %v", a.shape, b.shape)
		}
		out := NewFromPool(Float, bt, m, n)
		for i := 0; i < bt; i++ {
			matmul2d(out.F[i*m*n:(i+1)*m*n], a.F[i*m*k:(i+1)*m*k], b.F[i*k*n:(i+1)*k*n], m, k, n)
		}
		return out, nil
	}
	return nil, fmt.Errorf("tensor: MatMul requires rank-2 or rank-3 tensors, got %v and %v", a.shape, b.shape)
}

// matmul2d computes out = A(mxk) * B(kxn) with an ikj loop order for cache
// friendliness; out must be zeroed (callers allocate fresh).
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

// Transpose returns the rank-2 transpose, or a permuted rank-N transpose if
// perm is given.
func Transpose(t *Tensor, perm ...int) (*Tensor, error) {
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
	out := Alloc(t.dtype, newShape...) // every element is written below
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

// MatVec multiplies [m,k] x [k] -> [m].
func MatVec(a, v *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || v.Rank() != 1 || a.shape[1] != v.shape[0] {
		return nil, fmt.Errorf("tensor: MatVec shapes %v x %v", a.shape, v.shape)
	}
	vm := v.MustReshape(v.shape[0], 1)
	r, err := MatMul(a, vm)
	if err != nil {
		return nil, err
	}
	return r.Reshape(a.shape[0])
}

// Dot computes the inner product of two equal-length vectors.
func Dot(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 1 || b.Rank() != 1 || a.shape[0] != b.shape[0] {
		return nil, fmt.Errorf("tensor: Dot shapes %v . %v", a.shape, b.shape)
	}
	var s float64
	for i := range a.F {
		s += a.F[i] * b.F[i]
	}
	return Scalar(s), nil
}

// OuterAddBias adds a bias vector [n] to each row of a matrix [m,n].
func OuterAddBias(m, bias *Tensor) (*Tensor, error) {
	if m.Rank() != 2 || bias.Rank() != 1 || m.shape[1] != bias.shape[0] {
		return nil, fmt.Errorf("tensor: OuterAddBias shapes %v + %v", m.shape, bias.shape)
	}
	return Add(m, bias)
}
