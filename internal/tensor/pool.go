package tensor

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Pool effectiveness counters on the process registry: a hit is an Alloc
// served from a recycled buffer, a miss is a fresh allocation. hit rate =
// hits / (hits + misses) per scrape.
var (
	metricPoolHits   = metrics.Default().Counter("tensor_pool_hits_total")
	metricPoolMisses = metrics.Default().Counter("tensor_pool_misses_total")

	// Payload accounting: live is bytes handed out by Alloc and not yet
	// Recycled, peak is its high-water mark. Payload means requested
	// element bytes, not the power-of-two class capacity, so the numbers
	// compare directly against verify.EstimateMemory's static bound
	// (which sums exact tensor sizes). A buffer comes back when its last
	// reference is released, however many consumers it had and whether or
	// not it waited on a stack for the gradient loop; what stays counted is
	// what a step left with a holder — a fetched value, a tensor a
	// variable, a TensorArray or a non-Fresh kernel was handed — which the
	// GC reclaims. So over a step the gauge moves by exactly those bytes
	// (dcf.TestPoolGaugeNeverSinks names them for a training step: 194 KB
	// of gradients handed to ApplyGradientDescent and 120 bytes), and any
	// other growth is a leaked reference; per-step peak measurements still
	// bracket it with ResetPoolWater.
	metricPoolLive = metrics.Default().Gauge("tensor_pool_live_bytes")
	metricPoolPeak = metrics.Default().Gauge("tensor_pool_peak_bytes")
)

// elemBytes is the per-element storage cost of a pooled dtype.
func elemBytes(dtype DType) int64 {
	if dtype == Bool {
		return 1
	}
	return 8 // float64 / int64
}

// PoolPeakBytes reports the high-water mark of the pool's live payload bytes.
// dcfvet:allow deadapi=benchmark/ reads it for tensor.pool_peak_bytes
func PoolPeakBytes() int64 { return metricPoolPeak.Value() }

// ResetPoolWater zeroes the live/peak payload accounting. Tests bracket a
// measured region with it; buffers allocated before the reset that are
// recycled inside the region drive the live gauge negative, which only
// lowers the observed peak (the conservative direction for bound checks).
// dcfvet:allow deadapi=benchmark/ brackets its tensor.pool_peak_bytes probe with it
func ResetPoolWater() {
	metricPoolLive.Set(0)
	metricPoolPeak.Set(0)
}

// Buffer pool: size-classed free lists of whole tensors (struct, shape
// slice, and backing storage together), one set of power-of-two classes per
// numeric dtype. Alloc/Recycle are the runtime's buffer-reuse entry points
// — the equivalent of TensorFlow's allocator-backed buffer forwarding —
// while New remains the plain GC-managed constructor for long-lived
// tensors (constants, variables, user data).
//
// Ownership rule: Recycle may only be called by a holder that is provably
// the last reference to the tensor. In this repository that holder is the
// executor's dispatcher, which counts the references it hands out from the
// plan's consumer lists and recycles on the release that reaches zero (see
// internal/exec), or the rendezvous it moved an owned token into; a kernel
// recycles only scratch it allocated itself. Under the race detector Recycle
// poisons the payload first (poison_race.go), so a reference released too
// early reads NaNs, not a neighbour's plausible numbers.

// poolClasses bounds the largest pooled buffer at 2^(poolClasses-1)
// elements (~1 GiB of float64); larger tensors fall through to the GC.
const poolClasses = 28

var tensorPools [3][poolClasses]sync.Pool // indexed by Float, Int, Bool

// classFor returns the smallest class whose capacity (1<<class) holds n
// elements.
func classFor(n int) int {
	c := 0
	for (1 << c) < n {
		c++
	}
	return c
}

// fitClass returns the largest class whose capacity fits within cp, or -1
// when cp is 0 (nothing worth pooling) or cp exceeds the largest class
// (Alloc never draws such sizes from the pool, so storing them would only
// pin oversized memory).
func fitClass(cp int) int {
	if cp <= 0 || cp >= 1<<poolClasses {
		return -1
	}
	c := 0
	for c+1 < poolClasses && (1<<(c+1)) <= cp {
		c++
	}
	return c
}

// Alloc returns a tensor of the given dtype and shape drawn from the
// buffer pool when possible. The element storage MAY BE UNINITIALIZED
// (previous contents): use it only when every element will be written, or
// use NewFromPool for zeroed storage. String tensors are never pooled.
func Alloc(dtype DType, shape ...int) *Tensor {
	n := NumElements(shape)
	if dtype < Float || dtype > Bool {
		return New(dtype, shape...)
	}
	c := classFor(n)
	if c >= poolClasses {
		return New(dtype, shape...)
	}
	bytes := int64(n) * elemBytes(dtype)
	metricPoolLive.Add(bytes)
	metricPoolPeak.SetMax(metricPoolLive.Value())
	if v := tensorPools[dtype][c].Get(); v != nil {
		metricPoolHits.Inc()
		t := v.(*Tensor)
		t.shape = append(t.shape[:0], shape...)
		switch dtype {
		case Float:
			t.F = t.F[:n]
		case Int:
			t.I = t.I[:n]
		case Bool:
			t.B = t.B[:n]
		}
		return t
	}
	metricPoolMisses.Inc()
	t := &Tensor{dtype: dtype, shape: cloneShape(shape)}
	switch dtype {
	case Float:
		t.F = make([]float64, n, 1<<c)
	case Int:
		t.I = make([]int64, n, 1<<c)
	case Bool:
		t.B = make([]bool, n, 1<<c)
	}
	return t
}

// NewFromPool is Alloc with zeroed element storage: a drop-in replacement
// for New on hot paths that cannot guarantee a full overwrite. (Str falls
// through Alloc to New, whose storage is already zeroed.)
func NewFromPool(dtype DType, shape ...int) *Tensor {
	t := Alloc(dtype, shape...)
	switch t.dtype {
	case Float:
		clear(t.F)
	case Int:
		clear(t.I)
	case Bool:
		clear(t.B)
	}
	return t
}

// ShrinkRows narrows the leading dimension of a float tensor from Alloc to
// rows (at most Dim(0)) in place, for a decoder that must size its
// destination before it knows how many rows will arrive. The storage keeps
// its capacity, so Recycle still returns it to the class it came from; the
// live gauge gives up the rows dropped here, so Alloc → ShrinkRows →
// Recycle balances.
func ShrinkRows(t *Tensor, rows int) {
	if t.dtype != Float || rows < 0 || rows > t.shape[0] {
		panic(fmt.Sprintf("tensor: ShrinkRows(%d) on %v tensor of shape %v", rows, t.dtype, t.shape))
	}
	n := len(t.F) / max(t.shape[0], 1) * rows
	metricPoolLive.Add(-int64(len(t.F)-n) * elemBytes(Float))
	t.shape[0] = rows
	t.F = t.F[:n]
}

// Recycle returns t (struct, shape, and storage) to the buffer pool for a
// later Alloc. The caller must hold the only live reference to t: no other
// tensor, value, fetch, feed, resource, or slice of its backing array may
// survive the call. Non-numeric tensors and nil are ignored.
func Recycle(t *Tensor) {
	if t == nil || t.dtype < Float || t.dtype > Bool {
		return
	}
	metricPoolLive.Add(-int64(NumElements(t.shape)) * elemBytes(t.dtype))
	poison(t)
	var c int
	switch t.dtype {
	case Float:
		c = fitClass(cap(t.F))
		if c >= 0 {
			t.F = t.F[:0]
		}
	case Int:
		c = fitClass(cap(t.I))
		if c >= 0 {
			t.I = t.I[:0]
		}
	case Bool:
		c = fitClass(cap(t.B))
		if c >= 0 {
			t.B = t.B[:0]
		}
	}
	if c < 0 {
		return
	}
	tensorPools[t.dtype][c].Put(t)
}
