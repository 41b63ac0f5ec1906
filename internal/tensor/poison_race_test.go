//go:build race

package tensor

import (
	"math"
	"testing"
)

// TestRecyclePoisonsPayload: a holder that recycles a buffer it still reads
// sees the pattern, for every pooled dtype.
func TestRecyclePoisonsPayload(t *testing.T) {
	f, i, b := Alloc(Float, 3, 5), Alloc(Int, 7), Alloc(Bool, 2)
	fv, iv, bv := f.F, i.I, b.B // the stale reads of an early release
	for k := range fv {
		fv[k] = float64(k)
	}
	clear(iv)
	clear(bv)
	Recycle(f)
	Recycle(i)
	Recycle(b)
	for k, v := range fv {
		if math.Float64bits(v) != poisonFloatBits {
			t.Fatalf("float element %d reads %v (%#x) after Recycle, want the poison NaN", k, v, math.Float64bits(v))
		}
	}
	for k, v := range iv {
		if v != poisonInt {
			t.Fatalf("int element %d reads %d after Recycle, want math.MinInt64", k, v)
		}
	}
	for k, v := range bv {
		if !v {
			t.Fatalf("bool element %d reads false after Recycle, want true", k)
		}
	}
}
