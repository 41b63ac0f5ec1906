package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/dcf"
	"repro/internal/fleetserve"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// poolLive is the buffer pool's live-bytes gauge, as /metrics exports it.
var poolLive = metrics.Default().Gauge("tensor_pool_live_bytes")

const (
	testDim     = 8
	testClasses = 4
	testBatch   = 32
)

// served is the single-process model behind the real /predict handler.
type served struct {
	*predictor
	m        *model
	draining atomic.Bool
}

func newServed(t testing.TB, dim, classes int) *served {
	t.Helper()
	m, err := buildModel(dim, classes, dcf.BatchOptions{MaxBatchSize: testBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.srv.Close()
		m.sess.Close()
	})
	s := &served{m: m}
	s.predictor = newPredictor(m.srv.Predict, true, dim, testBatch, &s.draining)
	return s
}

// post runs one request through h with a recorder.
func post(h http.Handler, method, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, "/predict", strings.NewReader(body)))
	return rec
}

// forwardRef is buildModel's network in plain Go, from the same public
// initialisers: softmax(tanh(x·W1 + b1)·W2) with b1 = 0.
func forwardRef(x []float64, dim, classes int) []float64 {
	w1, w2 := dcf.GlorotUniform(1, dim, dim).F, dcf.GlorotUniform(2, dim, classes).F
	hid := make([]float64, dim)
	for j := range hid {
		for k, v := range x {
			hid[j] += v * w1[k*dim+j]
		}
		hid[j] = math.Tanh(hid[j])
	}
	out := make([]float64, classes)
	sum := 0.0
	for c := range out {
		for k, v := range hid {
			out[c] += v * w2[k*classes+c]
		}
		out[c] = math.Exp(out[c])
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
	return out
}

// checkScores holds one answered row to the reference forward pass.
func checkScores(t testing.TB, got, x []float64, dim, classes int) {
	t.Helper()
	want := forwardRef(x, dim, classes)
	if len(got) != len(want) {
		t.Fatalf("got %d scores, want %d", len(got), len(want))
	}
	sum := 0.0
	for c, v := range got {
		sum += v
		if math.Abs(v-want[c]) > 1e-9 {
			t.Fatalf("class %d: got %v, the forward pass gives %v", c, v, want[c])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %v, want 1", sum)
	}
}

// rowVals is a test instance: n values (i+off)/4.
func rowVals(n int, off float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = (float64(i) + off) / 4
	}
	return vals
}

// rowJSON is rowVals as a JSON array.
func rowJSON(n int, off float64) string {
	b, _ := json.Marshal(rowVals(n, off)) // floats always marshal
	return string(b)
}

func instancesJSON(rows, dim int) string {
	parts := make([]string, rows)
	for r := range parts {
		parts[r] = rowJSON(dim, float64(r))
	}
	return `{"instances":[` + strings.Join(parts, ",") + `]}`
}

// TestPredictContract drives the real handler over the real model.
func TestPredictContract(t *testing.T) {
	s := newServed(t, testDim, testClasses)
	row := rowJSON(testDim, 0)
	for _, tc := range []struct {
		name, method, body string
		status             int
		rows               int // answered rows; 0 = the single form
	}{
		{"x", "POST", `{"x":` + row + `}`, 200, 0},
		{"instances", "POST", instancesJSON(3, testDim), 200, 3},
		{"a full batch", "POST", instancesJSON(testBatch, testDim), 200, testBatch},
		{"X in capitals", "POST", `{"X":` + row + `}`, 200, 0},
		{"trailing bytes", "POST", `{"x":` + row + `}}} and so on`, 200, 0},
		{"unknown keys", "POST", `{"id":"r-17","meta":{"tags":[1,"a",null]},"x":` + row + `}`, 200, 0},
		{"whitespace", "POST", " {\n\t\"instances\" : [ " + row + " ,\r\n" + rowJSON(testDim, 1) + " ] } ", 200, 2},
		{"wrong width", "POST", `{"x":` + rowJSON(testDim-1, 0) + `}`, 400, 0},
		{"one short row among instances", "POST", `{"instances":[` + row + `,` + rowJSON(testDim+1, 0) + `]}`, 400, 0},
		{"0 instances", "POST", `{"instances":[]}`, 400, 0},
		{"33 instances", "POST", instancesJSON(testBatch+1, testDim), 400, 0},
		{"1e999", "POST", `{"x":` + strings.Replace(row, "0,", "1e999,", 1) + `}`, 400, 0},
		{"null element", "POST", `{"x":` + strings.Replace(row, "0,", "null,", 1) + `}`, 400, 0},
		{"truncated", "POST", `{"x":` + row[:len(row)-3], 400, 0},
		{"empty", "POST", ``, 400, 0},
		{"not an object", "POST", row, 400, 0},
		{"neither key", "POST", `{"y":` + row + `}`, 400, 0},
		{"oversized", "POST", `{"x":` + row + `,"pad":"` + strings.Repeat("p", int(s.maxBody)) + `"}`, 413, 0},
		{"GET", "GET", ``, 405, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, tc.method, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.status != 200 {
				if rec.Body.Len() == 0 {
					t.Fatal("an error status with no message")
				}
				return
			}
			if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
				t.Fatalf("Content-Length %q on a %s-byte answer", got, want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			if tc.rows == 0 {
				var ans struct{ Scores []float64 }
				if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
					t.Fatalf("%v: %s", err, rec.Body)
				}
				checkScores(t, ans.Scores, rowVals(testDim, 0), testDim, testClasses)
				return
			}
			var ans struct{ Scores [][]float64 }
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
				t.Fatalf("%v: %s", err, rec.Body)
			}
			if len(ans.Scores) != tc.rows {
				t.Fatalf("%d rows answered, want %d", len(ans.Scores), tc.rows)
			}
			for r, scores := range ans.Scores {
				checkScores(t, scores, rowVals(testDim, float64(r)), testDim, testClasses)
			}
		})
	}

	t.Run("oversized without Content-Length", func(t *testing.T) {
		req := httptest.NewRequest("POST", "/predict", io.MultiReader(strings.NewReader(`{"pad":"`), strings.NewReader(strings.Repeat("p", int(s.maxBody)))))
		if req.ContentLength != -1 {
			t.Fatalf("test set-up: Content-Length %d is known", req.ContentLength)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
		}
	})

	t.Run("chunked", func(t *testing.T) {
		req := httptest.NewRequest("POST", "/predict", io.MultiReader(strings.NewReader(`{"x":`), strings.NewReader(row+"}")))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})

	t.Run("draining", func(t *testing.T) {
		s.draining.Store(true)
		defer s.draining.Store(false)
		rec := post(s, "POST", `{"x":`+row+`}`)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("status %d, Retry-After %q; want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
		}
	})
}

// stubbed is the real handler over a predict call the test supplies.
func stubbed(recycle bool, predict func(ctx context.Context, args ...*tensor.Tensor) ([]*tensor.Tensor, error)) *predictor {
	return newPredictor(predict, recycle, testDim, testBatch, new(atomic.Bool))
}

// TestPredictErrorStatuses pins the one error → status table both modes
// answer with.
func TestPredictErrorStatuses(t *testing.T) {
	for _, tc := range []struct {
		err        error
		status     int
		retryAfter bool
	}{
		{serve.ErrQueueFull, 429, false},
		{fmt.Errorf("replica r1: %w", serve.ErrQueueFull), 429, false},
		{fmt.Errorf("%w: feed 0 has 40 rows", serve.ErrInvalidRequest), 400, false},
		{serve.ErrClosed, 503, true},
		{fmt.Errorf("fleetserve: %w: no replica", fleetserve.ErrUnavailable), 503, true},
		{fleetserve.ErrClosed, 503, true},
		{errors.New("serve: batched step failed: kernel panic"), 500, false},
	} {
		h := stubbed(true, func(context.Context, ...*tensor.Tensor) ([]*tensor.Tensor, error) { return nil, tc.err })
		rec := post(h, "POST", `{"x":`+rowJSON(testDim, 0)+`}`)
		if rec.Code != tc.status || (rec.Header().Get("Retry-After") != "") != tc.retryAfter {
			t.Errorf("%v: status %d Retry-After %q, want %d (Retry-After: %v)", tc.err, rec.Code, rec.Header().Get("Retry-After"), tc.status, tc.retryAfter)
		}
		if !strings.Contains(rec.Body.String(), tc.err.Error()) {
			t.Errorf("%v: answered %q", tc.err, rec.Body)
		}
	}
}

// refEncode is the encoder /predict had: encoding/json over a map.
func refEncode(scores *tensor.Tensor, single bool) ([]byte, error) {
	var buf bytes.Buffer
	var v any = scores.F
	if !single {
		nested := make([][]float64, scores.Dim(0))
		width := scores.Dim(1)
		for i := range nested {
			nested[i] = scores.F[i*width : (i+1)*width]
		}
		v = nested
	}
	err := json.NewEncoder(&buf).Encode(map[string]any{"scores": v})
	return buf.Bytes(), err
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, 1e20, 9.99e20, -1e21, 1.5e300, 1e-9, 1.234e-10,
		5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 0.30000000000000004, 1.0 / 3,
		123456789012345678, 1e100, 1e-100, 100, 1e6, 123456.789, math.Pi, -math.E}
	rng := newRand(3)
	for len(vals)%4 != 0 || len(vals) < 400 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
		if v := vals[len(vals)-1]; math.IsNaN(v) || math.IsInf(v, 0) {
			vals = vals[:len(vals)-1]
		}
	}
	for _, single := range []bool{true, false} {
		scores := tensor.FromFloats(vals, len(vals)/4, 4)
		if single {
			scores = tensor.FromFloats(vals, 1, len(vals))
		}
		want, err := refEncode(scores, single)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendScores([]byte("the body that was here"), scores, single)
		if err != nil {
			t.Fatal(err)
		}
		if got = bytes.TrimPrefix(got, []byte("the body that was here")); !bytes.Equal(got, want) {
			t.Fatalf("single=%v: the encoders part at byte %d:\n got %.120q\nwant %.120q", single, commonPrefix(got, want), got[commonPrefix(got, want):], want[commonPrefix(got, want):])
		}
	}

	// What encoding/json refuses to write, the handler answers 500 — not
	// the empty 200 the Encoder's error used to leave behind.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		scores := tensor.FromFloats([]float64{0.5, bad, 0.25, 0.25}, 1, 4)
		if _, err := refEncode(scores, true); err == nil {
			t.Fatalf("the reference encodes %v", bad)
		}
		if _, err := appendScores(nil, scores, true); err == nil {
			t.Fatalf("appendScores encodes %v", bad)
		}
		h := stubbed(true, func(context.Context, ...*tensor.Tensor) ([]*tensor.Tensor, error) {
			return []*tensor.Tensor{scores}, nil
		})
		if rec := post(h, "POST", `{"x":`+rowJSON(testDim, 0)+`}`); rec.Code != 500 || !strings.Contains(rec.Body.String(), "not representable") {
			t.Fatalf("a %v score answered %d %q, want 500", bad, rec.Code, rec.Body)
		}
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// TestPredictPhaseMetrics: every answered request lands once in each of
// the four phase histograms and in the body-size one, all on the registry
// /metrics already exports.
func TestPredictPhaseMetrics(t *testing.T) {
	s := newServed(t, testDim, testClasses)
	names := []string{"dcfserve_predict_read_ns", "dcfserve_predict_decode_ns", "dcfserve_predict_wait_ns", "dcfserve_predict_encode_ns", "dcfserve_predict_body_bytes"}
	// counts scrapes /metrics for each histogram's _count sample.
	counts := func() []int64 {
		rec := httptest.NewRecorder()
		metrics.Handler(metrics.Default(), s.m.srv.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		out := make([]int64, len(names))
		for i, name := range names {
			_, rest, ok := strings.Cut(rec.Body.String(), "\n"+name+"_count ")
			if !ok {
				t.Fatalf("/metrics has no %s", name)
			}
			line, _, _ := strings.Cut(rest, "\n")
			out[i], _ = strconv.ParseInt(line, 10, 64)
		}
		return out
	}
	before := counts()
	bodyBytes := hPredictBody.Sum()
	body := instancesJSON(2, testDim)
	for i := 0; i < 3; i++ {
		if rec := post(s, "POST", body); rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post(s, "POST", `{"x":[1]}`) // a refused request is not a sample
	for i, n := range counts() {
		if got := n - before[i]; got != 3 {
			t.Errorf("%s took %d samples for 3 answered requests", names[i], got)
		}
	}
	if got := hPredictBody.Sum() - bodyBytes; got != int64(3*len(body)) {
		t.Errorf("body-bytes histogram grew by %d over three %d-byte bodies", got, len(body))
	}
}

// replayBody is a request body that can be rewound without allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// nullWriter is a ResponseWriter that keeps nothing but the status, so that
// what a measurement counts is the handler's own.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }

// replay returns a function that sends body through h once more, reusing
// one request and one writer.
func replay(t testing.TB, h http.Handler, body []byte) func() {
	rb := new(replayBody)
	req := httptest.NewRequest("POST", "/predict", rb)
	req.ContentLength = int64(len(body))
	w := &nullWriter{h: http.Header{}}
	return func() {
		rb.Reset(body)
		w.status = 200
		h.ServeHTTP(w, req)
		if w.status != 200 {
			t.Fatalf("status %d", w.status)
		}
	}
}

// TestPredictHandlerAllocBudget pins what one benchmark-shaped request
// (16 rows × 256 floats, ≈ 80 KB of JSON) costs in heap objects from the
// handler down. Measured: 39 — the executor step ≈ 25 (plan instance,
// frames, the dispatcher's queues, pool misses for what is fetched; the
// model is a chain of kernels, so the dispatcher keeps every one and the
// step makes no completion channel; a worker pool and the channel were 15
// more), the batcher's request bookkeeping 8, and the handler's own 6
// (MaxBytesReader, two header values, the feed's shape); body, feed and
// answer bytes come from their pools. The decoder this one replaced took
// 168 objects and 327 KB for the same body before the batcher saw it.
func TestPredictHandlerAllocBudget(t *testing.T) {
	s := newServed(t, 256, 16)
	once := replay(t, s, benchBody(16, 256, 1))
	once() // pools warm
	if got := testing.AllocsPerRun(50, once); got > 45 {
		t.Fatalf("one /predict request allocates %.0f objects, budget 45", got)
	}
}

// TestPredictLeavesPoolLevel: everything the handler takes from the tensor
// pool it gives back — whether it answers or refuses — except what it must
// not: the feed of a request canceled while its batch may still be reading.
func TestPredictLeavesPoolLevel(t *testing.T) {
	good, wide := instancesJSON(5, testDim), `{"instances":[`+rowJSON(testDim+1, 0)+`]}`
	both := `{"x":` + rowJSON(testDim, 0) + `,"instances":[` + rowJSON(testDim, 1) + `]}`

	// Over a predict call that takes nothing from the pool itself, the
	// gauge is back exactly where it started.
	answer := tensor.New(tensor.Float, 1, testClasses)
	h := stubbed(true, func(_ context.Context, args ...*tensor.Tensor) ([]*tensor.Tensor, error) {
		if args[0].Dim(0) == 5 {
			return nil, serve.ErrQueueFull // a refusal hands the feed back too
		}
		return []*tensor.Tensor{answer}, nil
	})
	start := poolLive.Value()
	for i := 0; i < 200; i++ {
		for _, body := range []string{good, wide, both, `{"x":[1,`, `{"x":` + rowJSON(testDim, 0) + `}`} {
			post(h, "POST", body)
		}
	}
	if live := poolLive.Value() - start; live != 0 {
		t.Fatalf("1000 requests left %+d tensor bytes checked out", live)
	}

	// Over the real model every feed comes back as well. What stays counted
	// is each request's fetched scores: a fetch leaves the pool's ownership
	// system for the GC (see the tensor pool's accounting rule).
	s := newServed(t, testDim, testClasses)
	post(s, "POST", good)
	start = poolLive.Value()
	for i := 0; i < 200; i++ {
		if rec := post(s, "POST", good); rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	if live, scores := poolLive.Value()-start, int64(200*5*testClasses*8); live != scores {
		t.Fatalf("200 requests moved the gauge by %d bytes; their fetched scores alone are %d", live, scores)
	}

	// A request canceled mid-batch: predict returns with the context's
	// error while the batch still holds the feed. It must not be recycled.
	ctx, cancel := context.WithCancel(context.Background())
	h = stubbed(true, func(ctx context.Context, _ ...*tensor.Tensor) ([]*tensor.Tensor, error) {
		cancel()
		<-ctx.Done()
		return nil, fmt.Errorf("serve: request canceled while batching: %w", ctx.Err())
	})
	start = poolLive.Value()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(good)).WithContext(ctx))
	if live := poolLive.Value() - start; live != 5*testDim*8 {
		t.Fatalf("after a canceled request the gauge moved by %d bytes, want the abandoned feed's %d", live, 5*testDim*8)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("answered a client that went away: %s", rec.Body)
	}

	// Fleet mode never recycles: a losing hedge attempt may outlive Predict.
	h = stubbed(false, func(context.Context, ...*tensor.Tensor) ([]*tensor.Tensor, error) {
		return []*tensor.Tensor{answer}, nil
	})
	start = poolLive.Value()
	post(h, "POST", good)
	if live := poolLive.Value() - start; live != 5*testDim*8 {
		t.Fatalf("fleet mode moved the gauge by %d bytes, want the feed's %d left to the GC", live, 5*testDim*8)
	}
}

// TestConcurrentRequestsKeepTheirOwnBytes: body and answer buffers are
// pooled across connections; under concurrent, different requests every
// answer must still be its own request's. Run under -race in CI.
func TestConcurrentRequestsKeepTheirOwnBytes(t *testing.T) {
	s := newServed(t, testDim, testClasses)
	srv := httptest.NewServer(s)
	defer srv.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				off := float64(c*1000 + i)
				body := `{"pad":"` + strings.Repeat("p", (c*37+i*101)%3000) + `","x":` + rowJSON(testDim, off) + `}`
				resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var ans struct{ Scores []float64 }
				err = json.NewDecoder(resp.Body).Decode(&ans)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("status %d, decode: %v", resp.StatusCode, err)
					return
				}
				want := forwardRef(rowVals(testDim, off), testDim, testClasses)
				for k, v := range ans.Scores {
					if len(ans.Scores) != len(want) || math.Abs(v-want[k]) > 1e-9 {
						t.Errorf("caller %d request %d got another request's scores: %v, want %v", c, i, ans.Scores, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkPredictEncode(b *testing.B) {
	rng := newRand(1)
	scores := tensor.New(tensor.Float, 16, 16)
	for i := range scores.F {
		scores.F[i] = rng.Float64() / 16
	}
	buf, _ := appendScores(nil, scores, false)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if buf, err = appendScores(buf[:0], scores, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictHandler is one benchmark-shaped request from the handler
// down, without the socket.
func BenchmarkPredictHandler(b *testing.B) {
	s := newServed(b, 256, 16)
	body := benchBody(16, 256, 1)
	once := replay(b, s, body)
	once()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		once()
	}
}
