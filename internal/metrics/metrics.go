// Package metrics is the repository's dependency-free metrics layer: a
// registry of counters, gauges, and log-bucketed latency histograms with
// one exporter, Prometheus text exposition (/metrics on the daemons).
//
// The instruments are built for hot paths. A Counter or Gauge is one
// atomic word; a Histogram shards its buckets across cache-line-padded
// slots so concurrent Observe calls from a worker pool do not serialize on
// one line. Nothing here allocates after instrument construction, so
// instruments can sit on per-step executor paths without moving alloc
// budgets (see dcf's TestCallableCallAllocBudget).
//
// Naming convention (machine-enforced by the dcfvet metricname analyzer):
// metric names are snake_case and end in a unit suffix — _total for
// counters, and _ns, _bytes, _rows, _depth, _count, _ratio, or _seconds
// for everything else. The full catalog lives in README.md.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value (one atomic word).
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are a caller bug; they are not checked
// on the hot path).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (one atomic word).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v is larger (CAS loop; cheap because
// after warm-up the compare almost always fails without a write).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket geometry: observation v lands in bucket bits.Len64(v),
// i.e. log₂ buckets with upper bounds 1, 2, 4, ... — 64 buckets covers the
// whole int64 range, so nanosecond latencies from 1ns to ~290 years fit
// with no configuration.
const histBuckets = 65 // bits.Len64 ∈ [0, 64]

// histShards spreads concurrent Observe traffic; must be a power of two.
const histShards = 8

// histShard is one shard's buckets, padded to its own cache lines so two
// pool workers observing concurrently don't false-share.
type histShard struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	_      [64]byte // pad the tail away from the next shard's header
}

// Histogram is a lock-free log₂-bucketed distribution, built for latency
// observations in nanoseconds.
type Histogram struct {
	shards [histShards]histShard
	seq    atomic.Uint64
}

// Observe records v (negative observations clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	// Round-robin shard choice: independent of v (picking a shard from the
	// value's bits would re-serialize equal latencies on one line).
	s := &h.shards[h.seq.Add(1)&(histShards-1)]
	s.counts[bits.Len64(uint64(v))].Add(1)
	s.sum.Add(v)
}

// snapshot folds the shards into one cumulative view.
func (h *Histogram) snapshot() (counts [histBuckets]int64, sum, total int64) {
	for i := range h.shards {
		s := &h.shards[i]
		for b := 0; b < histBuckets; b++ {
			n := s.counts[b].Load()
			counts[b] += n
			total += n
		}
		sum += s.sum.Load()
	}
	return counts, sum, total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	_, s, _ := h.snapshot()
	return s
}

// Registry holds named instruments. Instrument lookup (Counter, Gauge,
// Histogram) is get-or-create and takes a lock; call it at construction
// time and keep the returned pointer for the hot path.
type Registry struct {
	mu     sync.Mutex
	order  []string // registration order, for stable export
	kinds  map[string]byte
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:  map[string]byte{},
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// defaultRegistry is the process-wide registry (executor and tensor-pool
// instruments live here; both daemons export it on /metrics).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) register(name string, kind byte) {
	if k, ok := r.kinds[name]; ok {
		if k != kind {
			panic(fmt.Sprintf("metrics: %q registered as two different kinds", name))
		}
		return
	}
	r.kinds[name] = kind
	r.order = append(r.order, name)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, 'c')
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, 'g')
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, 'h')
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// instruments snapshots the registry's instrument tables under the lock,
// so exporters iterate without holding it.
func (r *Registry) instruments() (names []string, kinds map[string]byte, ctrs map[string]*Counter, gauges map[string]*Gauge, hists map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names = append([]string(nil), r.order...)
	return names, r.kinds, r.ctrs, r.gauges, r.hists
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family, cumulative le
// buckets plus _sum and _count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names, kinds, ctrs, gauges, hists := r.instruments()
	for _, name := range names {
		switch kinds[name] {
		case 'c':
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, ctrs[name].Value()); err != nil {
				return err
			}
		case 'g':
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, gauges[name].Value()); err != nil {
				return err
			}
		case 'h':
			counts, sum, total := hists[name].snapshot()
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			cum := int64(0)
			for b := 0; b < histBuckets; b++ {
				if counts[b] == 0 {
					continue // sparse: emit only occupied buckets (+Inf always)
				}
				cum += counts[b]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bucketUpper(b), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
				name, total, name, sum, name, total); err != nil {
				return err
			}
		}
	}
	return nil
}

// bucketUpper is bucket b's inclusive upper bound: 2^b - ... observation v
// lands in bucket bits.Len64(v), whose members are [2^(b-1), 2^b - 1]
// (bucket 0 holds only v=0), so the upper bound is 2^b - 1.
func bucketUpper(b int) uint64 {
	if b >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(b) - 1
}

// Handler serves the given registries (Default() if none) concatenated as
// one Prometheus text page.
func Handler(regs ...*Registry) http.Handler {
	if len(regs) == 0 {
		regs = []*Registry{Default()}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if r == nil {
				continue
			}
			if err := r.WritePrometheus(w); err != nil {
				return
			}
		}
	})
}
