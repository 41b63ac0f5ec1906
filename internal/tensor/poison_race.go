//go:build race

package tensor

import "math"

// Under the race detector a use-after-recycle must be loud, not a flaky wrong
// digit: Recycle overwrites the payload with values no computation produces
// by accident before it pools the buffer, so whoever still reads it fails the
// first bit-exact comparison downstream. The pattern is a quiet NaN with a
// fixed payload for floats, math.MinInt64 for ints and true for bools.
const (
	poisonFloatBits = 0x7ff8dead0badf00d
	poisonInt       = math.MinInt64
)

func poison(t *Tensor) {
	nan := math.Float64frombits(poisonFloatBits)
	for i := range t.F {
		t.F[i] = nan
	}
	for i := range t.I {
		t.I[i] = poisonInt
	}
	for i := range t.B {
		t.B[i] = true
	}
}
