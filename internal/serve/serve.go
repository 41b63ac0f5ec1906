// Package serve implements dynamic request batching for model serving: a
// TensorFlow-Serving-style adaptive batcher that coalesces concurrent
// single-request inference calls into one batched executor step.
//
// Every request enqueues its feed tensors (each feed shaped [rows, ...])
// together with its own context.Context. The batcher groups compatible
// requests into buckets keyed by feed dtype and trailing shape (so ragged
// workloads — e.g. different sequence lengths — batch with others of the
// same length and never pay padding), forms micro-batches adaptively,
// stacks the feeds along axis 0, runs ONE batched call, and slices the
// fetched tensors back per request.
//
// Batch formation is driven by executor availability, not timers, by one
// rule: a request waits only while every execution slot (MaxInFlight) is
// busy. With a slot free it flushes at once (after a scheduler yield that
// lets already-runnable callers join), so up to MaxInFlight callers each
// run their own batch at minimal latency — batching buys nothing while a
// slot would otherwise idle. Once every slot is busy, arrivals accumulate
// and each completion immediately cuts the accumulated queue as the next
// batch (double-buffering) — occupancy grows with load automatically.
// MaxBatchSize caps one batch's rows; MaxQueueDelay is the backstop
// bounding how long a queued request can wait while the executor is
// saturated.
//
// Failure isolation: requests are validated at enqueue (arity, dtype,
// rank), so a malformed request is rejected before it can join — and
// poison — a batch. A request whose context is canceled while queued is
// dropped from its micro-batch at assembly time; its neighbors still
// execute. Batches execute under the batcher's own lifetime context, not
// any single request's, so one client disconnect never cancels work that
// other clients are waiting on.
//
// See README.md in this directory for the policy details and the
// ownership rule for stacked buffers.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// CallFunc executes one batched step: args are the stacked feed tensors
// (one per feed position, each shaped [batchRows, ...]) and the result is
// the fetched tensors (each shaped [batchRows, ...]). The dcf layer binds
// this to a pre-compiled Callable.
type CallFunc func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error)

// Options is the batch-formation policy.
type Options struct {
	// MaxBatchSize caps the rows of one micro-batch; a bucket flushes as
	// soon as its queued rows reach it. Default 32.
	MaxBatchSize int
	// MaxQueueDelay bounds how long a queued request waits while every
	// execution slot is busy: a bucket is cut into a batch at most this
	// long after its oldest request arrived, even if under-full. A request
	// arriving while a slot is free flushes after a scheduler yield and
	// never sees this delay. Default 2ms.
	MaxQueueDelay time.Duration
	// MaxInFlight is the number of execution slots: how many batches may
	// run at once, and so how many callers are served without waiting for
	// one another; arrivals accumulate into shared batches only once all
	// slots are busy. Default 2.
	MaxInFlight int
	// MaxQueuedRequests bounds requests waiting in buckets (backpressure:
	// Do fails fast with ErrQueueFull instead of growing without bound).
	// Default 1024.
	MaxQueuedRequests int
	// Validate, if set, vets each request's args at enqueue time (the dcf
	// layer installs per-feed dtype/rank checks from the callable spec).
	// A validation error rejects the request before it joins a batch.
	Validate func(args []*tensor.Tensor) error
}

// withDefaults fills unset policy knobs.
func (o Options) withDefaults() Options {
	if o.MaxBatchSize <= 0 {
		o.MaxBatchSize = 32
	}
	if o.MaxQueueDelay <= 0 {
		o.MaxQueueDelay = 2 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2
	}
	if o.MaxQueuedRequests <= 0 {
		o.MaxQueuedRequests = 1024
	}
	return o
}

// Sentinel errors returned by Do.
var (
	// ErrClosed reports an enqueue after Close.
	ErrClosed = errors.New("serve: batcher closed")
	// ErrQueueFull reports MaxQueuedRequests backpressure.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrInvalidRequest wraps enqueue-time validation failures (bad
	// arity, dtype, rank, rows). It marks the request — not the server —
	// as at fault, so front ends can map it to a 4xx status.
	ErrInvalidRequest = errors.New("serve: invalid request")
)

// ReqInfo is one request's per-call metrics, returned by DoDetailed.
type ReqInfo struct {
	// QueueDelay is how long the request waited for its batch to form
	// and acquire an execution slot.
	QueueDelay time.Duration
	// ExecLatency is the batched step's execution time.
	ExecLatency time.Duration
	// BatchRows and BatchRequests describe the micro-batch the request
	// rode in (occupancy).
	BatchRows     int
	BatchRequests int
}

// result carries one request's outcome from the batch executor.
type result struct {
	outs []*tensor.Tensor
	info ReqInfo
	err  error
}

// request is one enqueued call.
type request struct {
	args []*tensor.Tensor
	rows int
	ctx  context.Context
	enq  time.Time
	done chan result // buffered(1): delivery never blocks on an abandoned waiter
}

// bucket queues stack-compatible requests awaiting batch formation.
type bucket struct {
	pending []*request
	rows    int
	timer   *time.Timer
	// timerGen is the batcher-wide sequence number of the armed timer; a
	// firing timer whose generation no longer matches is stale (its
	// pending set was already cut by a size flush or completion cut) and
	// must not touch the bucket.
	timerGen uint64
	// lingering marks a free-slot flush goroutine already racing toward
	// this bucket (see lingerFlush).
	lingering bool
}

// Batcher coalesces concurrent requests into batched calls. Safe for
// concurrent use by any number of goroutines.
type Batcher struct {
	call CallFunc
	opts Options

	mu      sync.Mutex
	buckets map[string]*bucket
	queued  int // requests across all buckets (backpressure)
	// formed counts micro-batches cut but not yet finished executing;
	// while it is below MaxInFlight an execution slot is free (see enqueue).
	formed int
	// timerSeq issues bucket timer generations (see bucket.timerGen).
	timerSeq uint64
	closed   bool

	slots chan struct{} // in-flight batch semaphore
	wg    sync.WaitGroup

	start time.Time

	// Cumulative stats live on a per-batcher metrics registry (exported on
	// /metrics by dcfserve); the instrument pointers below are the hot-path
	// handles. Snapshot() folds them back into the legacy Stats view.
	reg           *metrics.Registry
	mRejected     *metrics.Counter
	mCanceled     *metrics.Counter
	mDropped      *metrics.Counter
	mBatches      *metrics.Counter
	mRows         *metrics.Counter
	mBatchedReqs  *metrics.Counter
	mErrors       *metrics.Counter
	mMaxBatchRows *metrics.Gauge
	mQueueMax     *metrics.Gauge
	mExecMax      *metrics.Gauge
	hQueueDelay   *metrics.Histogram
	hExec         *metrics.Histogram
}

// New creates a batcher over one batched call function.
func New(call CallFunc, opts Options) *Batcher {
	o := opts.withDefaults()
	b := &Batcher{
		call:    call,
		opts:    o,
		buckets: map[string]*bucket{},
		slots:   make(chan struct{}, o.MaxInFlight),
		start:   time.Now(),
		reg:     metrics.NewRegistry(),
	}
	b.mRejected = b.reg.Counter("serve_rejected_total")
	b.mCanceled = b.reg.Counter("serve_canceled_total")
	b.mDropped = b.reg.Counter("serve_dropped_canceled_total")
	b.mBatches = b.reg.Counter("serve_batches_total")
	b.mRows = b.reg.Counter("serve_rows_total")
	b.mBatchedReqs = b.reg.Counter("serve_batched_requests_total")
	b.mErrors = b.reg.Counter("serve_errors_total")
	b.mMaxBatchRows = b.reg.Gauge("serve_max_batch_rows")
	b.mQueueMax = b.reg.Gauge("serve_queue_delay_max_ns")
	b.mExecMax = b.reg.Gauge("serve_exec_max_ns")
	b.hQueueDelay = b.reg.Histogram("serve_queue_delay_ns")
	b.hExec = b.reg.Histogram("serve_exec_duration_ns")
	return b
}

// Metrics returns the batcher's metrics registry, for export alongside the
// process-wide metrics.Default() registry.
func (b *Batcher) Metrics() *metrics.Registry { return b.reg }

// bucketKey derives a request's bucket key: dtype + trailing dims per feed.
// Rows (axis 0) are excluded so requests of different row counts stack.
func bucketKey(args []*tensor.Tensor) string {
	var sb strings.Builder
	for _, a := range args {
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(int(a.DType())))
		for _, d := range a.ShapeRef()[1:] {
			sb.WriteByte(',')
			sb.WriteString(strconv.Itoa(d))
		}
	}
	return sb.String()
}

// Do enqueues one request and blocks until its batch has executed (or ctx
// is canceled, or the request is rejected). Args are the request's feed
// tensors, each shaped [rows, ...] with one shared row count; fetched
// tensors are returned sliced back to the request's own rows.
func (b *Batcher) Do(ctx context.Context, args ...*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs, _, err := b.DoDetailed(ctx, args...)
	return outs, err
}

// DoDetailed is Do returning the request's batching metrics as well.
func (b *Batcher) DoDetailed(ctx context.Context, args ...*tensor.Tensor) ([]*tensor.Tensor, ReqInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := b.enqueue(ctx, args)
	if err != nil {
		if errors.Is(err, ErrInvalidRequest) {
			b.mRejected.Inc()
		}
		return nil, ReqInfo{}, err
	}
	select {
	case res := <-req.done:
		return res.outs, res.info, res.err
	case <-ctx.Done():
		// The request may still be queued (assembly will drop it — see
		// runBatch) or already riding a batch whose result nobody will
		// read; either way the batch itself is unaffected.
		b.mCanceled.Inc()
		return nil, ReqInfo{}, fmt.Errorf("serve: request canceled while batching: %w", ctx.Err())
	}
}

// validate vets one request's args before it can join a batch.
func (b *Batcher) validate(args []*tensor.Tensor) (int, error) {
	if len(args) == 0 {
		return 0, fmt.Errorf("serve: request has no feed tensors")
	}
	rows := -1
	for i, a := range args {
		if a == nil {
			return 0, fmt.Errorf("serve: feed %d is nil", i)
		}
		if a.Rank() == 0 {
			return 0, fmt.Errorf("serve: feed %d is a scalar; batched feeds need a leading batch dimension", i)
		}
		if rows == -1 {
			rows = a.Dim(0)
		} else if a.Dim(0) != rows {
			return 0, fmt.Errorf("serve: feed %d has %d rows, feed 0 has %d; all feeds of one request must share axis-0 size", i, a.Dim(0), rows)
		}
	}
	if rows == 0 {
		return 0, fmt.Errorf("serve: request has zero rows")
	}
	if rows > b.opts.MaxBatchSize {
		return 0, fmt.Errorf("serve: request carries %d rows, above MaxBatchSize %d", rows, b.opts.MaxBatchSize)
	}
	if b.opts.Validate != nil {
		if err := b.opts.Validate(args); err != nil {
			return 0, err
		}
	}
	return rows, nil
}

// enqueue validates the request and places it in its bucket, arming the
// delay timer or triggering a size flush.
func (b *Batcher) enqueue(ctx context.Context, args []*tensor.Tensor) (*request, error) {
	rows, err := b.validate(args)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	key := bucketKey(args)
	req := &request{args: args, rows: rows, ctx: ctx, enq: time.Now(), done: make(chan result, 1)}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if b.queued >= b.opts.MaxQueuedRequests {
		b.mu.Unlock()
		return nil, ErrQueueFull
	}
	bk := b.buckets[key]
	if bk == nil {
		bk = &bucket{}
		b.buckets[key] = bk
	}
	bk.pending = append(bk.pending, req)
	bk.rows += rows
	b.queued++
	switch {
	case bk.rows >= b.opts.MaxBatchSize:
		b.flushLocked(key, bk)
	case b.formed < b.opts.MaxInFlight && !bk.lingering:
		// A slot is free: flush after a scheduler yield, not a timer. The
		// yield lets goroutines that are already runnable (concurrent
		// callers mid-enqueue — on a small GOMAXPROCS they may not have
		// had a single cycle yet) join the batch, while an unsaturated
		// server pays only microseconds of added latency. With every slot
		// busy the request waits instead (next case) for a completion to
		// cut the accumulated queue — batches grow with load, without a
		// fixed timer tax.
		bk.lingering = true
		go b.lingerFlush(key)
	case bk.timer == nil:
		b.armTimerLocked(key, bk, b.opts.MaxQueueDelay)
	}
	b.mu.Unlock()
	return req, nil
}

// armTimerLocked arms the bucket's MaxQueueDelay backstop with a fresh
// generation, so stale firings (from timers already stopped logically) are
// recognizable.
func (b *Batcher) armTimerLocked(key string, bk *bucket, wait time.Duration) {
	b.timerSeq++
	gen := b.timerSeq
	bk.timerGen = gen
	bk.timer = time.AfterFunc(wait, func() { b.flushTimeout(key, gen) })
}

// lingerFlush yields the processor a few times, then flushes the bucket:
// the free-slot batch formation of enqueue.
func (b *Batcher) lingerFlush(key string) {
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	bk := b.buckets[key]
	if bk == nil || !bk.lingering {
		return
	}
	bk.lingering = false
	if len(bk.pending) > 0 {
		b.flushLocked(key, bk)
	}
}

// flushTimeout is the MaxQueueDelay timer body. A firing whose generation
// is stale lost a race with a size flush or completion cut that already
// took its pending set (and possibly re-armed a newer timer for fresh
// requests); it must not cut those early.
func (b *Batcher) flushTimeout(key string, gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bk := b.buckets[key]
	if bk == nil || bk.timerGen != gen || len(bk.pending) == 0 {
		return
	}
	bk.timer = nil
	b.flushLocked(key, bk)
}

// flushLocked cuts one micro-batch off the front of the bucket (at most
// MaxBatchSize rows, always at least one request) and hands it to a batch
// goroutine. Remaining requests re-arm the timer relative to the oldest
// survivor so no request waits more than MaxQueueDelay for formation.
func (b *Batcher) flushLocked(key string, bk *bucket) {
	if bk.timer != nil {
		bk.timer.Stop()
		bk.timer = nil
	}
	// Any in-flight linger goroutine or already-fired timer was racing
	// for the pending set being cut now; stand both down so they cannot
	// prematurely cut later arrivals.
	bk.lingering = false
	bk.timerGen = 0
	cut := 0
	rows := 0
	for cut < len(bk.pending) {
		r := bk.pending[cut]
		if cut > 0 && rows+r.rows > b.opts.MaxBatchSize {
			break
		}
		rows += r.rows
		cut++
	}
	batch := append([]*request(nil), bk.pending[:cut]...)
	rest := bk.pending[cut:]
	bk.pending = append(bk.pending[:0:0], rest...)
	bk.rows -= rows
	b.queued -= len(batch)
	if len(bk.pending) > 0 {
		if bk.rows >= b.opts.MaxBatchSize {
			b.flushLocked(key, bk)
		} else {
			wait := b.opts.MaxQueueDelay - time.Since(bk.pending[0].enq)
			if wait < 0 {
				wait = 0
			}
			b.armTimerLocked(key, bk, wait)
		}
	} else {
		// Keep the bucket table bounded: a drained bucket (no pending,
		// no armed timer, no linger in flight) is deleted rather than
		// accreted — ragged workloads can see unboundedly many distinct
		// shape keys over a server's lifetime, and batchDone scans this
		// map per completion.
		delete(b.buckets, key)
	}
	b.formed++
	b.wg.Add(1)
	go b.runBatch(batch)
}

// batchDone retires one executing batch and, with the slot now free,
// immediately cuts the next micro-batch from the fullest waiting bucket —
// the other half of adaptive batching: under load, batch boundaries are
// set by executor availability, not timers.
func (b *Batcher) batchDone() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.formed--
	if b.formed >= b.opts.MaxInFlight {
		return
	}
	var bestKey string
	var best *bucket
	for key, bk := range b.buckets {
		if len(bk.pending) > 0 && (best == nil || bk.rows > best.rows) {
			bestKey, best = key, bk
		}
	}
	if best != nil {
		b.flushLocked(bestKey, best)
	}
}

// runBatch executes one formed micro-batch: acquire an execution slot,
// drop requests canceled while queued, stack the survivors' feeds along
// axis 0, run the batched call, and slice fetches back per request.
func (b *Batcher) runBatch(batch []*request) {
	defer b.wg.Done()
	defer b.batchDone()
	b.slots <- struct{}{}
	defer func() { <-b.slots }()

	// Drop canceled requests now, after slot acquisition: they spent the
	// whole queueing window cancelable, and their neighbors still run.
	live := batch[:0:0]
	dropped := 0
	for _, r := range batch {
		if r.ctx.Err() != nil {
			dropped++
			continue
		}
		live = append(live, r)
	}
	if dropped > 0 {
		b.mDropped.Add(int64(dropped))
	}
	if len(live) == 0 {
		return
	}

	rows := 0
	for _, r := range live {
		rows += r.rows
	}
	args, err := stackFeeds(live)
	if err != nil {
		b.fail(live, err)
		return
	}
	// The batch runs under its own context: member requests already had
	// their chance to drop out, and canceling mid-step would poison the
	// neighbors sharing the stacked tensors.
	execStart := time.Now()
	outs, err := b.call(context.Background(), args)
	execLat := time.Since(execStart)

	b.mBatches.Inc()
	b.mRows.Add(int64(rows))
	b.mBatchedReqs.Add(int64(len(live)))
	b.mMaxBatchRows.SetMax(int64(rows))
	b.hExec.Observe(execLat.Nanoseconds())
	b.mExecMax.SetMax(execLat.Nanoseconds())
	if err != nil {
		b.mErrors.Inc()
	}

	if err != nil {
		b.fail(live, fmt.Errorf("serve: batched step failed: %w", err))
		return
	}
	b.deliver(live, outs, rows, execLat)
}

// stackFeeds concatenates the live requests' feeds along axis 0, one
// stacked tensor per feed position. A single-request batch hands its feed
// tensors through untouched (no copy).
func stackFeeds(live []*request) ([]*tensor.Tensor, error) {
	if len(live) == 1 {
		return live[0].args, nil
	}
	nfeeds := len(live[0].args)
	args := make([]*tensor.Tensor, nfeeds)
	parts := make([]*tensor.Tensor, len(live))
	for j := 0; j < nfeeds; j++ {
		for i, r := range live {
			parts[i] = r.args[j]
		}
		stacked, err := tensor.Concat(0, parts...)
		if err != nil {
			return nil, fmt.Errorf("serve: stacking feed %d: %w", j, err)
		}
		args[j] = stacked
	}
	return args, nil
}

// deliver slices each fetched tensor back to per-request rows and completes
// every waiter. The batcher owns the stacked output buffers; each request
// receives freshly sliced copies, so one slow consumer never pins (or
// races over) a neighbor's rows.
func (b *Batcher) deliver(live []*request, outs []*tensor.Tensor, rows int, execLat time.Duration) {
	// Every fetch must carry the batch dimension — also for a
	// single-request batch, where skipping the check would let a
	// misconfigured fetch (e.g. one reducing over axis 0) pass all
	// light-load traffic and fail only when requests coalesce.
	single := len(live) == 1
	for i, o := range outs {
		if o.Rank() == 0 || o.Dim(0) != rows {
			b.fail(live, fmt.Errorf("serve: fetch %d has shape %v; batched fetches must carry the batch dimension (%d rows) on axis 0", i, o.Shape(), rows))
			return
		}
	}
	now := time.Now()
	start := 0
	for ri, r := range live {
		var mine []*tensor.Tensor
		if single {
			mine = outs
		} else {
			mine = make([]*tensor.Tensor, len(outs))
			for i, o := range outs {
				s, err := tensor.SliceRows(o, start, r.rows)
				if err != nil { // unreachable: shapes checked above
					b.fail(live[ri:], err)
					return
				}
				mine[i] = s
			}
		}
		info := ReqInfo{
			QueueDelay:    now.Add(-execLat).Sub(r.enq),
			ExecLatency:   execLat,
			BatchRows:     rows,
			BatchRequests: len(live),
		}
		b.recordDelay(info.QueueDelay)
		r.done <- result{outs: mine, info: info}
		start += r.rows
	}
}

// fail completes every waiter of a batch with err.
func (b *Batcher) fail(live []*request, err error) {
	for _, r := range live {
		r.done <- result{err: err}
	}
}

// recordDelay folds one request's queue delay into the stats.
func (b *Batcher) recordDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b.hQueueDelay.Observe(d.Nanoseconds())
	b.mQueueMax.SetMax(d.Nanoseconds())
}

// Close stops accepting requests, flushes every queued request into a
// final round of micro-batches, and blocks until all in-flight batches
// have drained (every outstanding Do has been answered).
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	for key, bk := range b.buckets {
		for len(bk.pending) > 0 {
			b.flushLocked(key, bk)
		}
		if bk.timer != nil {
			bk.timer.Stop()
			bk.timer = nil
		}
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// Stats is a point-in-time snapshot of batcher activity.
type Stats struct {
	// Rejected counts requests failing enqueue validation; Canceled
	// counts waiters abandoning a queued or in-flight request;
	// DroppedCanceled counts requests actually removed from a batch at
	// assembly.
	Rejected        int64
	Canceled        int64
	DroppedCanceled int64
	// Batches / Rows / BatchedRequests describe executed micro-batches;
	// occupancy = Rows / Batches.
	Batches         int64
	Rows            int64
	BatchedRequests int64
	Errors          int64
	MaxBatchRows    int
	// QueueDelay* aggregate each delivered request's wait for batch
	// formation + execution slot; Exec* aggregate per-batch step latency.
	QueueDelayTotal time.Duration
	QueueDelayMax   time.Duration
	ExecTotal       time.Duration
	ExecMax         time.Duration
	// Uptime is time since the batcher was created (steps/sec =
	// Batches / Uptime, request throughput = BatchedRequests / Uptime).
	Uptime time.Duration
	// Queued/InFlightBatches are live occupancy gauges (not cumulative):
	// requests waiting for batch formation and micro-batches currently
	// executing at snapshot time. A fleet router reads them to rank
	// replicas for least-loaded dispatch.
	Queued          int
	InFlightBatches int
}

// AvgBatchRows is mean micro-batch occupancy in rows.
func (s Stats) AvgBatchRows() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Rows) / float64(s.Batches)
}

// Snapshot returns the current stats, folded back from the batcher's
// metrics registry.
func (b *Batcher) Snapshot() Stats {
	s := Stats{
		Rejected:        b.mRejected.Value(),
		Canceled:        b.mCanceled.Value(),
		DroppedCanceled: b.mDropped.Value(),
		Batches:         b.mBatches.Value(),
		Rows:            b.mRows.Value(),
		BatchedRequests: b.mBatchedReqs.Value(),
		Errors:          b.mErrors.Value(),
		MaxBatchRows:    int(b.mMaxBatchRows.Value()),
		QueueDelayTotal: time.Duration(b.hQueueDelay.Sum()),
		QueueDelayMax:   time.Duration(b.mQueueMax.Value()),
		ExecTotal:       time.Duration(b.hExec.Sum()),
		ExecMax:         time.Duration(b.mExecMax.Value()),
	}
	s.Uptime = time.Since(b.start)
	s.Queued, s.InFlightBatches = b.Load()
	return s
}

// Load reports the live occupancy gauges alone — queued requests and
// executing micro-batches — without copying the cumulative counters. The
// fleet router calls it on every dispatch decision, so it stays a single
// short critical section on the formation lock.
func (b *Batcher) Load() (queued, inFlightBatches int) {
	b.mu.Lock()
	queued, inFlightBatches = b.queued, b.formed
	b.mu.Unlock()
	return queued, inFlightBatches
}
