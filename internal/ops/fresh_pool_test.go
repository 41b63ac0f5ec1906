package ops

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// poolLive is the buffer pool's live-bytes gauge, as /metrics exports it.
var poolLive = metrics.Default().Gauge("tensor_pool_live_bytes")

// TestFreshOutputsComeFromPool runs every registered Fresh op and then does
// what the executor does with the result — recycles owned inputs the kernel
// did not forward, and later the output — and requires the pool's live-byte
// gauge to be back exactly where it started. An output built with New or
// Clone instead of Alloc/NewFromPool makes Recycle subtract bytes no Alloc
// added, and the gauge (and the peak derived from it) drifts low.
func TestFreshOutputsComeFromPool(t *testing.T) {
	samples := opSamples()
	for _, name := range slices.Sorted(maps.Keys(registry)) {
		def := registry[name]
		if !def.Fresh {
			continue
		}
		if len(samples[name]) == 0 {
			t.Errorf("%s is registered Fresh but has no entry in opSamples", name)
			continue
		}
		for si, s := range samples[name] {
			// Once with borrowed inputs (nothing forwardable), once with
			// pool-allocated inputs the kernel may take as its output.
			for _, owned := range []bool{false, true} {
				start := poolLive.Value()
				ctx := &KernelContext{OpName: name, NodeName: name, Attrs: s.attrs, Env: newFakeEnv()}
				for i, in := range s.ins() {
					if owned {
						in, _ = tensor.Cast(in, in.DType()) // a pool-backed copy
						ctx.FwdMask |= 1 << uint(i)
					}
					ctx.In = append(ctx.In, TensorVal(in))
				}
				out, err := def.Kernel(ctx)
				if err != nil || len(out) == 0 {
					t.Fatalf("%s sample %d: out %v, err %v", name, si, out, err)
				}
				forwarded := map[*tensor.Tensor]bool{}
				for _, o := range out {
					if o.T == nil {
						t.Fatalf("%s sample %d: out %v", name, si, out)
					}
					forwarded[o.T] = true
					tensor.Recycle(o.T)
				}
				if owned {
					for _, in := range ctx.In {
						if !forwarded[in.T] {
							tensor.Recycle(in.T)
						}
					}
				}
				if got := poolLive.Value(); got != start {
					t.Errorf("%s sample %d (owned inputs %v): pool live bytes moved by %d", name, si, owned, got-start)
				}
			}
		}
	}
}
