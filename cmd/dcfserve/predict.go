package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleetserve"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Where a /predict request's time goes, seen from the server: reading the
// body off the socket, decoding it, the Predict call (queue wait + batched
// step), and encoding + writing the answer. Only answered-200 requests are
// observed, so the four histograms always count the same requests.
var (
	hPredictRead   = metrics.Default().Histogram("dcfserve_predict_read_ns")
	hPredictDecode = metrics.Default().Histogram("dcfserve_predict_decode_ns")
	hPredictWait   = metrics.Default().Histogram("dcfserve_predict_wait_ns")
	hPredictEncode = metrics.Default().Histogram("dcfserve_predict_encode_ns")
	hPredictBody   = metrics.Default().Histogram("dcfserve_predict_body_bytes")
)

// predictor serves POST /predict in either mode; the mode is the predict
// call it was given.
type predictor struct {
	predict func(ctx context.Context, args ...*tensor.Tensor) ([]*tensor.Tensor, error)
	// recycleFeed says the feed tensor may return to the pool once predict
	// has come back: true over the in-process batcher, which is done with a
	// request's feed when it answers; false over the fleet router, where a
	// losing hedge attempt can outlive the call.
	recycleFeed bool
	dim         int
	maxRows     int
	// maxBody bounds request bodies: the largest legitimate payload is one
	// maxRows×dim instances list (~25 JSON bytes per float), plus slack.
	// Timeouts bound time; this bounds bytes.
	maxBody int64
	// draining is the process's shutdown flag (see main).
	draining *atomic.Bool
}

func newPredictor(predict func(context.Context, ...*tensor.Tensor) ([]*tensor.Tensor, error), recycleFeed bool, dim, maxRows int, draining *atomic.Bool) *predictor {
	return &predictor{
		predict:     predict,
		recycleFeed: recycleFeed,
		dim:         dim,
		maxRows:     maxRows,
		maxBody:     1<<16 + int64(maxRows)*int64(dim)*32,
		draining:    draining,
	}
}

// bodyPool recycles request buffers across connections: a request's body is
// read into one and, once decoded into the feed, its answer is encoded into
// the same bytes.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// predictStatus is the one table from a Predict error to an HTTP status.
// 503 means "re-send": the batcher is closing, or the fleet is
// (momentarily) out of healthy replicas or retry budget.
func predictStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrInvalidRequest):
		// Enqueue-time validation failures are client bugs, rejected
		// before the request could join a batch.
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrClosed), errors.Is(err, fleetserve.ErrUnavailable), errors.Is(err, fleetserve.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// fail answers an error; every 503 carries Retry-After so clients and load
// balancers re-send instead of giving up.
func fail(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, status)
}

// ServeHTTP reads and decodes the body, rides the batcher (or the router)
// under the client's context, and replies with the request's own rows of
// the scores.
func (p *predictor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.draining.Load() {
		fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	t0 := time.Now()
	bufp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bufp)
	body, err := readBody(*bufp, w, r, p.maxBody)
	*bufp = body
	if err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(w, status, fmt.Sprintf("bad request body: %v", err))
		return
	}
	t1 := time.Now()
	feed, single, err := decodePredict(body, p.dim, p.maxRows)
	if err != nil {
		fail(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	t2 := time.Now()
	out, err := p.predict(r.Context(), feed)
	t3 := time.Now()
	canceled := err != nil && r.Context().Err() != nil
	if p.recycleFeed && !canceled {
		// Answered or refused, the batcher holds the feed no longer. Not so
		// after a cancellation: the batch the request was dropped from may
		// still be reading it, so the GC takes that one.
		tensor.Recycle(feed)
	}
	if canceled {
		return // the client went away; nobody reads an answer
	}
	if err != nil {
		fail(w, predictStatus(err), err.Error())
		return
	}
	resp, err := appendScores(body[:0], out[0], single)
	*bufp = resp
	if err != nil {
		fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	w.Write(resp)
	hPredictRead.Observe(int64(t1.Sub(t0)))
	hPredictDecode.Observe(int64(t2.Sub(t1)))
	hPredictWait.Observe(int64(t3.Sub(t2)))
	hPredictEncode.Observe(int64(time.Since(t3)))
	hPredictBody.Observe(int64(len(body)))
}

// readBody reads the request body into buf's storage, through
// http.MaxBytesReader: a body over limit fails with *http.MaxBytesError.
// The buffer is sized by Content-Length when the client sent one and grows
// by doubling otherwise, never past limit+1 bytes.
func readBody(buf []byte, w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	src := http.MaxBytesReader(w, r.Body, limit)
	buf = buf[:0]
	// One byte more than the body, so the Read that reports EOF has room.
	if want := int(min(r.ContentLength, limit)) + 1; cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			// src hands over at most limit bytes, so this stops at limit+1.
			grown := make([]byte, len(buf), min(2*int64(cap(buf))+512, limit+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// appendScores appends the /predict answer for scores ([rows, classes]) to
// dst, byte for byte what encoding/json's Encoder writes for
// {"scores": [...]} (single: the one row) or {"scores": [[...], ...]}. A
// NaN or infinite score is an error, as it is there.
func appendScores(dst []byte, scores *tensor.Tensor, single bool) ([]byte, error) {
	dst = append(dst, `{"scores":`...)
	if !single {
		dst = append(dst, '[')
	}
	rows := scores.Dim(0)
	width := len(scores.F) / rows
	for r := 0; r < rows; r++ {
		if r > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range scores.F[r*width : (r+1)*width] {
			if j > 0 {
				dst = append(dst, ',')
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return dst, fmt.Errorf("score %d of instance %d is %v: not representable in JSON", j, r, v)
			}
			dst = appendJSONFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	if !single {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// appendJSONFloat formats a finite f as encoding/json does (ES6 number to
// string): plain decimals, exponent form below 1e-6 and from 1e21, no
// padding of the exponent.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-09 → e-9
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
