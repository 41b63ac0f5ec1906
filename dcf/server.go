package dcf

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// BatchOptions is the batch-formation policy of a Server: how long a
// request may wait for batch-mates, how large one batched step may grow,
// and how many batched steps run at once. Zero values pick serving-safe
// defaults (batch 32, delay 2ms, 2 in-flight, 1024 queued).
type BatchOptions struct {
	// MaxBatchSize caps one micro-batch's stacked rows; a bucket flushes
	// as soon as it reaches this many.
	MaxBatchSize int
	// MaxQueueDelay bounds the time a request waits for batch-mates while
	// every execution slot is busy: an under-full bucket flushes this
	// long after its oldest request arrived. This is the knob trading
	// tail latency for occupancy.
	MaxQueueDelay time.Duration
	// MaxInFlight is the number of execution slots: how many batched
	// steps run at once. A request waits (and shares a batch) only while
	// all of them are busy.
	MaxInFlight int
	// MaxQueuedRequests bounds requests waiting in buckets; beyond it
	// Predict fails fast with serve.ErrQueueFull (backpressure to the
	// caller instead of unbounded queue growth).
	MaxQueuedRequests int
}

// ServeStats is a snapshot of a Server's batching activity (occupancy,
// queue delay, execution latency, throughput). See serve.Stats.
type ServeStats = serve.Stats

// Batching errors a Predict caller can match with errors.Is.
var (
	// ErrServerClosed reports a Predict after Close.
	ErrServerClosed = serve.ErrClosed
	// ErrQueueFull reports MaxQueuedRequests backpressure.
	ErrQueueFull = serve.ErrQueueFull
	// ErrInvalidRequest wraps enqueue-time validation failures (bad
	// arity, dtype, rank, rows) — the request's fault, not the server's,
	// so HTTP front ends should map it to a 4xx status.
	ErrInvalidRequest = serve.ErrInvalidRequest
)

// ReqInfo is one request's batching metrics (queue delay, the batch it
// rode in), returned by PredictDetailed.
type ReqInfo = serve.ReqInfo

// Server is the adaptive-batching serving layer over one compiled
// Callable: concurrent Predict calls are coalesced into batched executor
// steps (feeds stacked along axis 0, fetches sliced back per request), so
// high-concurrency serving pays per-step runtime overhead once per batch
// instead of once per request — the TensorFlow-Serving batching strategy
// on top of the paper's per-signature executors.
//
// Every feed must carry a leading batch axis (requests usually feed
// [1, ...]; a client may feed its own [k, ...] mini-batch with
// k ≤ MaxBatchSize — larger requests are rejected at enqueue), and every
// fetch must preserve that axis, so the server can split results.
// Requests are validated at enqueue (arity, dtype, and rank — see
// PlaceholderTyped) and rejected before they can join a batch; a request
// whose context is canceled while queued is dropped from its micro-batch
// without disturbing its neighbors.
//
// A Server is safe for concurrent use by any number of goroutines.
type Server struct {
	c *Callable
	b *serve.Batcher
}

// NewServer compiles spec into a Callable and wraps it in an adaptive
// request batcher. Like MakeCallable, create servers after graph
// construction (including Gradients and Optimize) is complete.
func NewServer(s *Session, spec CallableSpec, opts BatchOptions) (*Server, error) {
	if len(spec.Feeds) == 0 {
		return nil, fmt.Errorf("dcf: a batched server needs at least one feed to stack")
	}
	c, err := s.MakeCallable(spec)
	if err != nil {
		return nil, err
	}
	// A typed placeholder with a FIXED leading dim would pass validation
	// for solo requests but fail the whole batch whenever requests
	// actually coalesce (the stacked axis-0 size changes). Reject the
	// spec up front instead of failing intermittently under load.
	for _, name := range spec.Feeds {
		n := s.g.b.G.ByName(name)
		if n == nil {
			continue // MakeCallable already vetted feed names
		}
		// PlaceholderTyped only records a "shape" attr for non-empty
		// shapes, so a declared shape always has a leading dim to vet.
		if shape, ok := n.Attr("shape").([]int); ok && shape[0] >= 0 {
			return nil, fmt.Errorf("dcf: batched feed %q declares a fixed leading dim %d; declare it -1 (any) so stacked batches validate", name, shape[0])
		}
	}
	sopts := serve.Options{
		MaxBatchSize:      opts.MaxBatchSize,
		MaxQueueDelay:     opts.MaxQueueDelay,
		MaxInFlight:       opts.MaxInFlight,
		MaxQueuedRequests: opts.MaxQueuedRequests,
		// Enqueue-time rejection: a malformed request never joins (and
		// never poisons) a batch. Value = tensor.Tensor, so the compiled
		// signature's validator applies directly.
		Validate: func(args []*tensor.Tensor) error { return c.c.ValidateArgs(args) },
	}
	call := func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		return c.Call(ctx, args...)
	}
	return &Server{c: c, b: serve.New(call, sopts)}, nil
}

// MakeBatchedCallable is NewServer on the session receiver: the batched
// sibling of MakeCallable.
func (s *Session) MakeBatchedCallable(spec CallableSpec, opts BatchOptions) (*Server, error) {
	return NewServer(s, spec, opts)
}

// Predict enqueues one request (args bound positionally to the spec's
// feeds, each shaped [rows, ...]) and blocks until its micro-batch has
// executed, returning the request's own rows of each fetch. Canceling ctx
// abandons the request: if still queued it is dropped from its batch;
// either way Predict returns promptly with ctx's error.
func (sv *Server) Predict(ctx context.Context, args ...*Value) ([]*Value, error) {
	return sv.b.Do(ctx, args...)
}

// PredictDetailed is Predict returning the request's batching metrics.
func (sv *Server) PredictDetailed(ctx context.Context, args ...*Value) ([]*Value, ReqInfo, error) {
	return sv.b.DoDetailed(ctx, args...)
}

// Stats snapshots the server's batching counters.
func (sv *Server) Stats() ServeStats { return sv.b.Snapshot() }

// Metrics returns the server's batching metrics registry (the serve_*
// families), for export on a Prometheus /metrics page alongside
// metrics.Default(). See metrics.Handler.
func (sv *Server) Metrics() *metrics.Registry { return sv.b.Metrics() }

// Callable returns the underlying compiled signature (the unbatched
// direct path, useful for comparison and for single-shot warmup).
func (sv *Server) Callable() *Callable { return sv.c }

// Close stops accepting requests, flushes the queue into final
// micro-batches, and blocks until every in-flight batch has drained —
// graceful shutdown never strands a waiting Predict.
func (sv *Server) Close() { sv.b.Close() }
