package tarray

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestWriteReadRoundtrip(t *testing.T) {
	a := New("a", 3, false)
	if err := a.Write(1, tensor.Scalar(7), nil); err != nil {
		t.Fatal(err)
	}
	v, err := a.Read(1)
	if err != nil || v.ScalarValue() != 7 {
		t.Fatalf("%v %v", v, err)
	}
}

func TestWriteOnceEnforced(t *testing.T) {
	a := New("a", 2, false)
	if err := a.Write(0, tensor.Scalar(1), nil); err != nil {
		t.Fatal(err)
	}
	err := a.Write(0, tensor.Scalar(2), nil)
	if err == nil || !strings.Contains(err.Error(), "write-once") {
		t.Fatalf("want write-once error, got %v", err)
	}
}

func TestGradArrayAccumulates(t *testing.T) {
	a := New("a", 2, false)
	g := a.Grad("s")
	if err := g.Write(0, tensor.Scalar(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Write(0, tensor.Scalar(2), nil); err != nil {
		t.Fatal(err)
	}
	v, err := g.Read(0)
	if err != nil || v.ScalarValue() != 3 {
		t.Fatalf("accumulate: %v %v", v, err)
	}
}

func TestGradArrayPerSourceCaching(t *testing.T) {
	a := New("a", 2, false)
	if a.Grad("s1") != a.Grad("s1") {
		t.Fatal("same source must share the array")
	}
	if a.Grad("s1") == a.Grad("s2") {
		t.Fatal("distinct sources must be distinct")
	}
}

func TestGradArrayTracksForwardResize(t *testing.T) {
	a := New("a", 0, false)
	g := a.Grad("s") // created while forward is size 0
	if err := a.UnstackFrom(tensor.FromFloats([]float64{1, 2, 3}, 3), nil); err != nil {
		t.Fatal(err)
	}
	// The gradient array must follow the forward array's new size.
	if err := g.Write(2, tensor.Scalar(5), nil); err != nil {
		t.Fatalf("grad write after resize: %v", err)
	}
	if g.Size() == 0 {
		t.Fatal("size not synced")
	}
}

func TestStackAllRequiresAllWritten(t *testing.T) {
	a := New("a", 2, false)
	a.Write(0, tensor.Scalar(1), nil)
	if _, err := a.StackAll(); err == nil {
		t.Fatal("expected unwritten-location error")
	}
	a.Write(1, tensor.Scalar(2), nil)
	v, err := a.StackAll()
	if err != nil {
		t.Fatal(err)
	}
	if !equal(v, tensor.FromFloats([]float64{1, 2}, 2)) {
		t.Fatalf("got %v", v)
	}
}

func TestUnstackSizeMismatch(t *testing.T) {
	a := New("a", 2, false)
	err := a.UnstackFrom(tensor.FromFloats([]float64{1, 2, 3}, 3), nil)
	if err == nil {
		t.Fatal("expected size mismatch")
	}
}

func TestReadErrors(t *testing.T) {
	a := New("a", 2, false)
	if _, err := a.Read(5); err == nil {
		t.Fatal("range")
	}
	if _, err := a.Read(0); err == nil {
		t.Fatal("unwritten")
	}
}

// equal reports whether a and b have one dtype, one shape and the same
// elements.
func equal(a, b *tensor.Tensor) bool {
	return a.DType() == b.DType() && slices.Equal(a.Shape(), b.Shape()) &&
		slices.Equal(a.F, b.F) && slices.Equal(a.I, b.I) && slices.Equal(a.B, b.B) && slices.Equal(a.S, b.S)
}
