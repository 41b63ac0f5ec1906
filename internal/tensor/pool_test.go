package tensor

import "testing"

func TestAllocRecycleRoundTrip(t *testing.T) {
	a := Alloc(Float, 3, 4)
	if a.DType() != Float || !ShapeEq(a.ShapeRef(), []int{3, 4}) || len(a.F) != 12 {
		t.Fatalf("alloc shape wrong: %v", a)
	}
	for i := range a.F {
		a.F[i] = float64(i)
	}
	Recycle(a)
	// The next same-class Alloc may reuse a's storage; its contents are
	// unspecified but its shape and length must be exact.
	b := Alloc(Float, 13) // class 16: same as 12
	if len(b.F) != 13 || !ShapeEq(b.ShapeRef(), []int{13}) {
		t.Fatalf("realloc shape wrong: %v shape %v", len(b.F), b.ShapeRef())
	}
}

func TestNewFromPoolZeroesDirtyBuffers(t *testing.T) {
	a := Alloc(Float, 8)
	for i := range a.F {
		a.F[i] = 7
	}
	Recycle(a)
	b := NewFromPool(Float, 8)
	for i, v := range b.F {
		if v != 0 {
			t.Fatalf("NewFromPool element %d = %v, want 0", i, v)
		}
	}
	c := NewFromPool(Bool, 4)
	for i, v := range c.B {
		if v {
			t.Fatalf("NewFromPool bool element %d set", i)
		}
	}
}

func TestRecycleIgnoresUnpoolable(t *testing.T) {
	Recycle(nil)
	s := FromStrings([]string{"x"}, 1)
	Recycle(s) // strings are never pooled
	if s.S[0] != "x" {
		t.Fatal("string tensor mutated")
	}
	// Zero-capacity tensors are skipped, not stored.
	e := &Tensor{dtype: Float, shape: []int{0}}
	Recycle(e)
}

func TestIntoOpsForwardAndFallBack(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3}, 3)
	b := FromFloats([]float64{10, 20, 30}, 3)
	// dst aliasing a: in-place, same object returned.
	r, err := AddInto(a, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r != a {
		t.Fatal("AddInto did not forward into dst")
	}
	if r.F[0] != 11 || r.F[2] != 33 {
		t.Fatalf("AddInto wrong values: %v", r)
	}
	// dst of the wrong shape falls back to a fresh allocation.
	small := Zeros(2)
	r2, err := SubInto(small, b, b)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == small {
		t.Fatal("SubInto must not write into a mismatched dst")
	}
	if r2.F[0] != 0 || len(r2.F) != 3 {
		t.Fatalf("SubInto wrong result: %v", r2)
	}
	// dst that aliases neither input is refused (the forwarding contract).
	other := Zeros(3)
	r3, err := MulInto(other, b, b)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == other {
		t.Fatal("MulInto wrote into a non-input dst")
	}
	// Unary in place.
	c := FromFloats([]float64{-1, 4}, 2)
	r4, err := NegInto(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if r4 != c || c.F[0] != 1 || c.F[1] != -4 {
		t.Fatalf("NegInto in place failed: %v", c)
	}
	// Broadcasting with an aliasing full-shape dst stays correct.
	m := FromFloats([]float64{1, 2, 3, 4}, 2, 2)
	row := FromFloats([]float64{10, 20}, 2)
	r5, err := AddInto(m, m, row)
	if err != nil {
		t.Fatal(err)
	}
	if r5 != m || m.F[0] != 11 || m.F[1] != 22 || m.F[2] != 13 || m.F[3] != 24 {
		t.Fatalf("broadcast AddInto wrong: %v", m)
	}
}

// BenchmarkTensorPoolReuse measures the steady-state cost of a pooled
// allocate/release cycle; allocs/op should be ~0 once the pool is warm.
func BenchmarkTensorPoolReuse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := Alloc(Float, 16, 16)
		t.F[0] = float64(i)
		Recycle(t)
	}
}

// BenchmarkTensorNewGC is the unpooled baseline for BenchmarkTensorPoolReuse.
func BenchmarkTensorNewGC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := New(Float, 16, 16)
		t.F[0] = float64(i)
	}
}

func TestShrinkRowsKeepsClassAndBalancesGauge(t *testing.T) {
	start := metricPoolLive.Value()
	a := Alloc(Float, 32, 8)
	for i := range a.F {
		a.F[i] = float64(i)
	}
	ShrinkRows(a, 5)
	if !ShapeEq(a.ShapeRef(), []int{5, 8}) || len(a.F) != 40 || cap(a.F) != 256 || a.F[39] != 39 {
		t.Fatalf("shrunk to shape %v len %d cap %d", a.ShapeRef(), len(a.F), cap(a.F))
	}
	if live := metricPoolLive.Value() - start; live != 5*8*8 {
		t.Fatalf("live gauge holds %d bytes for a [5,8] float tensor", live)
	}
	Recycle(a)
	if live := metricPoolLive.Value() - start; live != 0 {
		t.Fatalf("Alloc → ShrinkRows → Recycle left the gauge at %+d", live)
	}
	ShrinkRows(Alloc(Float, 0, 8), 0) // zero rows of capacity is not a division by zero
	defer func() {
		if recover() == nil {
			t.Fatal("growing through ShrinkRows did not panic")
		}
	}()
	ShrinkRows(Alloc(Float, 2, 8), 3)
}
