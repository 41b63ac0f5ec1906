package metrics

import (
	"bytes"
	"fmt"
	"math/bits"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("depth_rows")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Fatal("SetMax did not raise the gauge")
	}
}

func TestRegistryKindCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("a_total")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1_000_000, -5} {
		h.Observe(v)
	}
	if _, _, got := h.snapshot(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	// -5 clamps to 0, so the sum excludes it.
	if got, want := h.Sum(), int64(0+1+2+3+4+100+1_000_000+0); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	counts, _, _ := h.snapshot()
	// v=0 → bucket 0; v=1 → bucket 1; v=2,3 → bucket 2; v=4 → bucket 3.
	wantBuckets := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, bits.Len64(100): 1, bits.Len64(1_000_000): 1}
	for b, want := range wantBuckets {
		if counts[b] != want {
			t.Errorf("bucket %d = %d, want %d", b, counts[b], want)
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; run
// under -race (the CI race matrix covers GOMAXPROCS 1, 2, and 4) it proves
// the sharded buckets never lose or tear an observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_ns")
	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(int64(w*perW + i))
			}
		}(w)
	}
	wg.Wait()
	if _, _, got := h.snapshot(); got != workers*perW {
		t.Fatalf("count = %d, want %d (lost observations)", got, workers*perW)
	}
	n := int64(workers * perW)
	if got, want := h.Sum(), n*(n-1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	counts, _, total := h.snapshot()
	var fold int64
	for _, c := range counts {
		fold += c
	}
	if fold != total {
		t.Fatalf("bucket fold %d != total %d", fold, total)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total").Add(3)
	r.Gauge("queue_depth").Set(2)
	h := r.Histogram("lat_ns")
	h.Observe(1)
	h.Observe(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE req_total counter\nreq_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth 2\n",
		"# TYPE lat_ns histogram\n",
		`lat_ns_bucket{le="1"} 1`,
		`lat_ns_bucket{le="3"} 2`,
		`lat_ns_bucket{le="+Inf"} 2`,
		"lat_ns_sum 4",
		"lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	// Prometheus histograms are cumulative: each le bucket counts all
	// observations at or below its bound, and the counts never decrease.
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	for i := int64(0); i < 100; i++ {
		h.Observe(i * 37)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "lat_ns_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = n
	}
	if last != 100 {
		t.Fatalf("+Inf bucket = %d, want 100", last)
	}
}

func TestHandler(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("a_total").Inc()
	b.Counter("b_total").Inc()
	rec := httptest.NewRecorder()
	Handler(a, b, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := rec.Body.String()
	if !strings.Contains(out, "a_total 1") || !strings.Contains(out, "b_total 1") {
		t.Fatalf("handler output missing families:\n%s", out)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_ns")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			h.Observe(i)
			i++
		}
	})
}
