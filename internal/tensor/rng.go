package tensor

import (
	"math"
	"sync"
)

// RNG is a small deterministic pseudo-random generator (xorshift64*),
// sufficient for weight initialization and synthetic workloads, and
// reproducible across runs for benchmark stability. It is safe for
// concurrent use: random ops on parallel loop iterations share the step's
// generator (the draw order then depends on scheduling, as in TensorFlow).
type RNG struct {
	mu    sync.Mutex
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.mu.Lock()
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	r.mu.Unlock()
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// RandUniform returns a float tensor with entries uniform in [lo, hi).
func RandUniform(r *RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(Float, shape...)
	for i := range t.F {
		t.F[i] = lo + (hi-lo)*r.Float64()
	}
	return t
}

// RandNormal returns a float tensor with entries from N(mean, std²).
func RandNormal(r *RNG, mean, std float64, shape ...int) *Tensor {
	t := New(Float, shape...)
	for i := range t.F {
		t.F[i] = mean + std*r.NormFloat64()
	}
	return t
}

// GlorotUniform returns a [fanIn, fanOut] weight matrix with the Glorot
// (Xavier) uniform initialization commonly used for RNN cells.
func GlorotUniform(r *RNG, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(r, -limit, limit, fanIn, fanOut)
}
