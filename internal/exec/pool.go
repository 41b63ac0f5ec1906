package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The worker pool replaces the per-execution `go func()` spawn on the kernel
// hot path. A Pool owns a fixed set of workers, each with its own run queue;
// the dispatcher pushes ready kernel executions round-robin, idle workers
// steal from busy ones, and completions are delivered to each executor in
// batches (a worker appends to a local done-buffer and flushes it per
// quantum), collapsing the old one-doneMsg-per-node channel round trip.
//
// Executors create a private plan-sized pool lazily on the first pooled
// execution (all-inline steps never spawn a worker), or share an injected
// pool: the distributed runtime gives every partition of a step the same
// pool so an 8-partition cluster schedules onto one worker budget instead of
// oversubscribing the machine 8x. Ops that may block indefinitely — Send,
// Recv, kernels on custom device runners or device memory — never enter the
// pool (a blocked worker would starve every other queued kernel); they keep
// their own goroutines.

// completionQuantum bounds how many finished executions a worker buffers
// before flushing them to the owning executor's events channel.
const completionQuantum = 32

// batchPool recycles completion batches between workers and dispatchers.
var batchPool = sync.Pool{
	New: func() any { return make([]doneMsg, 0, completionQuantum) },
}

// workq is one worker's run queue: items[head:] are live. The dispatcher
// pushes to the tail; the owning worker pops from the tail (locality: the
// newest item's inputs are warm), thieves take from the head — both O(1),
// with the consumed prefix reclaimed whenever the queue empties.
type workq struct {
	mu    sync.Mutex
	head  int
	items []workItem
}

func (q *workq) push(it workItem) {
	q.mu.Lock()
	q.items = append(q.items, it)
	q.mu.Unlock()
}

// reset reclaims the slice once all items are consumed (head caught up);
// both pops zero consumed slots, so truncation alone pins nothing.
func (q *workq) reset() {
	q.items = q.items[:0]
	q.head = 0
}

func (q *workq) popTail() (workItem, bool) {
	q.mu.Lock()
	n := len(q.items)
	if n == q.head {
		q.mu.Unlock()
		return workItem{}, false
	}
	it := q.items[n-1]
	q.items[n-1] = workItem{} // do not pin the popped item's tokens
	q.items = q.items[:n-1]
	if len(q.items) == q.head {
		q.reset()
	}
	q.mu.Unlock()
	return it, true
}

func (q *workq) popHead() (workItem, bool) {
	q.mu.Lock()
	if q.head == len(q.items) {
		q.mu.Unlock()
		return workItem{}, false
	}
	it := q.items[q.head]
	q.items[q.head] = workItem{} // do not pin the stolen item's tokens
	q.head++
	if q.head == len(q.items) {
		q.reset()
	}
	q.mu.Unlock()
	return it, true
}

// Pool is a persistent worker pool executing kernel items for one or more
// executors. Construct with NewPool, share via Binding.Pool, and Close when
// every executor using it has finished its step.
type Pool struct {
	queues    []*workq
	submitSeq atomic.Uint32

	mu      sync.Mutex
	cond    *sync.Cond
	pending int // items submitted but not yet claimed by a worker
	started bool
	closed  bool
	wg      sync.WaitGroup
}

// NewPool creates a pool with n workers (n <= 0 selects GOMAXPROCS).
// Workers are spawned lazily on the first Submit, so a pool that never
// receives work costs two allocations and no goroutines.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{queues: make([]*workq, n)}
	for i := range p.queues {
		p.queues[i] = &workq{}
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Size returns the worker count.
func (p *Pool) Size() int { return len(p.queues) }

// submit queues one execution, starting the workers on first use.
func (p *Pool) submit(it workItem) {
	w := int(p.submitSeq.Add(1)) % len(p.queues)
	p.queues[w].push(it)
	p.mu.Lock()
	p.pending++
	metricQueueCur.Set(int64(p.pending))
	metricQueuePeak.SetMax(int64(p.pending))
	if !p.started {
		p.started = true
		p.wg.Add(len(p.queues))
		for i := range p.queues {
			go p.worker(i)
		}
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Close asks the workers to exit once the queues drain and waits for them.
// Every executor whose items were submitted must have completed its step
// (an executor's Run returning guarantees all of its items were executed
// and their completions consumed).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// take claims one queued item for worker self: its own tail first, then a
// stealing sweep over the other workers' heads.
func (p *Pool) take(self int) (workItem, bool) {
	if it, ok := p.queues[self].popTail(); ok {
		return it, true
	}
	for i := 1; i < len(p.queues); i++ {
		if it, ok := p.queues[(self+i)%len(p.queues)].popHead(); ok {
			metricSteals.Inc()
			return it, true
		}
	}
	return workItem{}, false
}

// worker is the run loop: claim items, execute kernels, batch completions
// per executor, and flush the batch whenever it fills, the next item belongs
// to a different executor, or the queues go empty.
func (p *Pool) worker(self int) {
	defer p.wg.Done()
	var batch []doneMsg
	var batchEx *executor
	// sc is this worker's node scratch: each result is copied into its
	// doneMsg and the scratch tokens dropped before the next item runs.
	var sc nodeScratch
	flush := func() {
		if len(batch) == 0 {
			return
		}
		batchEx.events <- batch
		batch = nil
		batchEx = nil
	}
	for {
		p.mu.Lock()
		for p.pending == 0 && !p.closed {
			if len(batch) > 0 {
				p.mu.Unlock()
				flush()
				p.mu.Lock()
				continue
			}
			p.cond.Wait()
		}
		if p.pending == 0 && p.closed {
			p.mu.Unlock()
			flush()
			return
		}
		p.pending--
		metricQueueCur.Set(int64(p.pending))
		p.mu.Unlock()

		it, ok := p.take(self)
		if !ok {
			// The claim raced with another worker's steal sweep: the item
			// this claim accounted for was taken by a worker that then
			// could not find the item *its* claim accounted for (pushed to
			// a queue its sweep had already passed). Return the claim and
			// retry; the item is in some queue and pending now re-admits
			// exactly one worker to find it.
			p.mu.Lock()
			p.pending++
			p.mu.Unlock()
			p.cond.Signal()
			runtime.Gosched()
			continue
		}
		if batchEx != nil && (batchEx != it.ex || len(batch) >= completionQuantum) {
			flush()
		}
		if batch == nil {
			batch = batchPool.Get().([]doneMsg)[:0]
			batchEx = it.ex
		}
		var outs []Token
		var err error
		if !it.ex.aborted.Load() {
			// After a step fails the dispatcher only counts completions,
			// so skip the kernel (mirroring the dispatcher's own skip).
			outs, err = it.ex.runItem(&sc, &it, self)
		}
		batch = append(batch, doneMsg{idx: it.idx, fs: it.fs, iter: it.it.iter, err: err})
		batch[len(batch)-1].setOuts(outs)
		clear(outs) // an idle worker must not pin the last kernel's tensors
	}
}
