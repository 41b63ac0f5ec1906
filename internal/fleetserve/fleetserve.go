// Package fleetserve routes batched predict traffic over N model replicas,
// each a registered graph on remote cluster daemons, so that a dead daemon
// costs capacity — never correctness or availability (the paper's §2
// serving workloads under the §3 coarse-grained failure model: fail the
// attempt, reroute, readmit the replica when it returns).
//
// Each replica is an independent serving stack: a distrib.Fleet of worker
// daemons, a TCPCluster holding the registered graph, and its own
// internal/serve batcher coalescing concurrent requests into micro-batched
// steps. The router in front implements:
//
//   - Least-loaded dispatch: every Predict ranks the active replicas by
//     router-side in-flight attempts plus the batcher's live occupancy
//     gauges (serve.Batcher.Load) and dispatches to the least loaded.
//   - A bounded retry budget: a failed attempt is retried at most
//     MaxRetries times, each retry preferring a replica the request has
//     not tried yet — never a naked re-send into the same broken replica
//     while an untried alternative exists (and a replica the breaker has
//     tripped is excluded by state regardless). When the budget runs out,
//     or no active replica exists at all, the caller gets an error
//     wrapping ErrUnavailable, the retriable signal a front end maps to
//     503 + Retry-After.
//   - Per-replica circuit breakers: BreakerThreshold consecutive failures
//     trip a replica out of the pool (Open). A tripped replica is probed
//     for readmission on a jittered exponential schedule (half-open: at
//     most one probe in flight, no client traffic) and readmitted only
//     after it re-registers, restores state, and answers a warmup call.
//   - Health-checked membership: a prober re-verifies every active
//     replica's daemons each ProbeInterval (cluster control-plane hello via
//     the fleet's liveness probe), so a kill -9'd daemon is ejected within
//     one probe interval even if no request happens to hit it.
//   - Optional hedging: when a request's primary attempt is slower than
//     the observed p99 latency, one hedge attempt is launched on a
//     different replica; first response wins and the loser's attempt is
//     canceled (the batcher drops it from its micro-batch), so hedges are
//     bounded to at most one extra attempt and never leak work.
//   - Graceful join: Join builds, registers, restores, warms up, and
//     health-checks a new replica before it receives any traffic.
//
// Replicas are stateless by contract: any session state must be fully
// described by Config.Init, which is (re)applied whenever a replica joins
// or is readmitted after a restart — the serving mirror of the training
// stack's checkpoint/restore, with "restore" degenerating to re-pushing
// the same immutable weights.
package fleetserve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// ErrUnavailable marks a retriable routing failure: every eligible replica
// was tried (or none existed) and the request may well succeed if re-sent
// after a short delay. Front ends map it to 503 + Retry-After. Errors
// returned by Predict wrap it alongside the last per-replica error, so
// errors.Is sees both.
var ErrUnavailable = errors.New("fleetserve: no replica available")

// ErrClosed reports Predict or Join on a closed router.
var ErrClosed = errors.New("fleetserve: router closed")

// Config describes the model every replica serves.
type Config struct {
	// Build constructs the graph over one replica's (sorted) worker
	// names, returning the builder and the fetch outputs — the same shape
	// as distrib.JobSpec.Build, so serving and training share model
	// definitions.
	Build func(workers []string) (*core.Builder, []graph.Output, error)
	// Feeds names the placeholders, in the positional order Predict's
	// args arrive in.
	Feeds []string
	// Init, when non-nil, is the full session-variable state. It is
	// restored into every replica at join time and re-restored at
	// readmission after a daemon restart (a restarted daemon comes back
	// blank). Nil means the graph is weight-free (constants only).
	Init map[string]*tensor.Tensor
	// Warmup, when non-nil, is one request's args used to warm a replica
	// (compile paths, fault in pools) before it receives traffic.
	Warmup []*tensor.Tensor
}

// Options is the routing policy.
type Options struct {
	// ProbeInterval paces the health prober over active replicas and
	// bounds how long a dead daemon can linger in the pool. Default 500ms.
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's breaker. Default 3.
	BreakerThreshold int
	// BreakerBackoff schedules readmission probes of a tripped replica
	// (jittered exponential). Default {Base: 250ms, Max: 5s}.
	BreakerBackoff backoff.Exp
	// MaxRetries bounds additional attempts after the first. Each retry
	// prefers a replica the request has not tried; only once every
	// active replica has had a turn does the tried set reset for another
	// pass. Default 2; negative disables retries entirely.
	MaxRetries int
	// StepTimeout bounds one batched step end to end (it becomes the
	// batcher CallFunc's context deadline), converting a hung step — a
	// partitioned fabric eating tokens — into a prompt, retriable
	// failure. Default 10s.
	StepTimeout time.Duration
	// Hedge enables hedged requests: if the primary attempt has not
	// answered within the hedge delay — the observed p99 attempt latency,
	// floored at hedgeMinDelay — one extra attempt launches on a
	// different replica and the first response wins.
	Hedge bool
	// Batch is each replica's micro-batching policy (serve.Options).
	Batch serve.Options
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerBackoff == (backoff.Exp{}) {
		o.BreakerBackoff = backoff.Exp{Base: 250 * time.Millisecond, Max: 5 * time.Second}
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.StepTimeout <= 0 {
		o.StepTimeout = 10 * time.Second
	}
	return o
}

// State is one replica's position in the breaker/membership state machine.
type State int32

const (
	// StateJoining: built and registering/warming; no traffic yet.
	StateJoining State = iota
	// StateActive: in the dispatch pool.
	StateActive
	// StateOpen: breaker tripped; no traffic, awaiting its next
	// readmission probe.
	StateOpen
	// StateHalfOpen: one readmission probe in flight; still no traffic.
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateJoining:
		return "joining"
	case StateActive:
		return "active"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// replica is one serving stack plus its breaker bookkeeping.
type replica struct {
	name    string
	addrs   []string
	workers []string
	fleet   *distrib.Fleet
	tc      *distrib.TCPCluster
	b       *serve.Batcher

	// inflight counts router-side attempts currently inside this replica
	// (the dispatch load signal, together with the batcher's gauges).
	inflight atomic.Int64

	mu           sync.Mutex
	state        State
	consecFails  int
	probeAttempt int       // consecutive failed readmission probes
	nextProbe    time.Time // earliest next readmission probe (state Open)
}

func (rep *replica) getState() State {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.state
}

// load is the dispatch ranking key: attempts the router already has inside
// this replica plus what its batcher holds (queued requests and executing
// micro-batches).
func (rep *replica) load() int64 {
	q, f := rep.b.Load()
	return rep.inflight.Load() + int64(q) + int64(f)
}

// Router fronts the replica pool. All methods are safe for concurrent use.
type Router struct {
	cfg  Config
	opts Options

	mu     sync.Mutex
	reps   map[string]*replica
	order  []string // stable listing for Snapshot
	closed bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	lat latRing // attempt latencies, for the p99 hedge delay

	// Router counters live on a per-router metrics registry (exported on
	// /metrics by dcfserve's fleet mode); Snapshot folds them into the
	// legacy /fleetz Status view.
	reg          *metrics.Registry
	requests     *metrics.Counter
	retries      *metrics.Counter
	exhausted    *metrics.Counter
	hedges       *metrics.Counter
	hedgeWins    *metrics.Counter
	ejections    *metrics.Counter
	readmissions *metrics.Counter
	joins        *metrics.Counter
}

// New builds a router and joins one replica per addrs element (each a list
// of daemon control addresses — most replicas are a single daemon). Every
// initial replica must join (register, restore, warm up, pass its health
// probe) or New tears down and fails: a fleet that boots degraded should
// say so at startup, not at first request.
func New(ctx context.Context, cfg Config, opts Options, replicas ...[]string) (*Router, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("fleetserve: Config.Build is required")
	}
	if len(cfg.Feeds) == 0 {
		return nil, fmt.Errorf("fleetserve: Config.Feeds is required")
	}
	r := &Router{
		cfg:  cfg,
		opts: opts.withDefaults(),
		reps: map[string]*replica{},
		stop: make(chan struct{}),
		reg:  metrics.NewRegistry(),
	}
	r.requests = r.reg.Counter("fleet_requests_total")
	r.retries = r.reg.Counter("fleet_retries_total")
	r.exhausted = r.reg.Counter("fleet_exhausted_total")
	r.hedges = r.reg.Counter("fleet_hedges_total")
	r.hedgeWins = r.reg.Counter("fleet_hedge_wins_total")
	r.ejections = r.reg.Counter("fleet_ejections_total")
	r.readmissions = r.reg.Counter("fleet_readmissions_total")
	r.joins = r.reg.Counter("fleet_joins_total")
	for _, addrs := range replicas {
		if _, err := r.Join(ctx, addrs...); err != nil {
			r.Close()
			return nil, err
		}
	}
	r.wg.Add(1)
	go r.probeLoop()
	return r, nil
}

// callFunc binds one replica's cluster to the batcher: stacked feed
// tensors zip with Config.Feeds by position, and the step runs under the
// router's StepTimeout so a hung fabric converts into a retriable failure
// instead of a leaked execution slot.
func (r *Router) callFunc(tc *distrib.TCPCluster) serve.CallFunc {
	return func(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
		sctx, cancel := context.WithTimeout(ctx, r.opts.StepTimeout)
		defer cancel()
		feeds := make(map[string]*tensor.Tensor, len(r.cfg.Feeds))
		for i, name := range r.cfg.Feeds {
			feeds[name] = args[i]
		}
		return tc.RunCtx(sctx, feeds)
	}
}

// Join adds one replica: dial its daemons, build and register the graph,
// restore Init, warm up, and health-check — only then does it enter the
// dispatch pool. Returns the replica's name (its sorted worker names
// joined with "+").
func (r *Router) Join(ctx context.Context, addrs ...string) (string, error) {
	if len(addrs) == 0 {
		return "", fmt.Errorf("fleetserve: join needs at least one daemon address")
	}
	fl, err := distrib.Dial(addrs...)
	if err != nil {
		return "", fmt.Errorf("fleetserve: join: %w", err)
	}
	workers := fl.Workers()
	name := strings.Join(workers, "+")
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		fl.Close()
		return "", ErrClosed
	}
	if _, dup := r.reps[name]; dup {
		r.mu.Unlock()
		fl.Close()
		return "", fmt.Errorf("fleetserve: replica %q already joined", name)
	}
	r.mu.Unlock()

	b, fetches, err := r.cfg.Build(workers)
	if err != nil {
		fl.Close()
		return "", fmt.Errorf("fleetserve: join %s: build: %w", name, err)
	}
	tc, err := fl.NewCluster(b, fetches, nil, distrib.TCPOptions{})
	if err != nil {
		fl.Close()
		return "", fmt.Errorf("fleetserve: join %s: register: %w", name, err)
	}
	rep := &replica{
		name:    name,
		addrs:   append([]string(nil), addrs...),
		workers: workers,
		fleet:   fl,
		tc:      tc,
		state:   StateJoining,
	}
	bopts := r.opts.Batch
	if bopts.Validate == nil {
		// Arity guard: callFunc zips args with Config.Feeds by position,
		// so a wrong-arity request must be rejected at enqueue (a client
		// bug, ErrInvalidRequest) rather than reaching the zip.
		nfeeds := len(r.cfg.Feeds)
		bopts.Validate = func(args []*tensor.Tensor) error {
			if len(args) != nfeeds {
				return fmt.Errorf("got %d feed tensors, want %d", len(args), nfeeds)
			}
			return nil
		}
	}
	rep.b = serve.New(r.callFunc(tc), bopts)
	teardown := func() {
		rep.b.Close()
		tc.Close()
		fl.Close()
	}
	if err := r.qualify(ctx, rep); err != nil {
		teardown()
		return "", fmt.Errorf("fleetserve: join %s: %w", name, err)
	}
	for _, w := range workers {
		if !fl.Live(w) {
			teardown()
			return "", fmt.Errorf("fleetserve: join %s: worker %q failed its health probe", name, w)
		}
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		teardown()
		return "", ErrClosed
	}
	rep.mu.Lock()
	rep.state = StateActive
	rep.mu.Unlock()
	r.reps[name] = rep
	r.order = append(r.order, name)
	r.mu.Unlock()
	r.joins.Add(1)
	return name, nil
}

// qualify restores Init into a replica and round-trips the warmup call
// under ctx: what a replica passes before it takes traffic, on Join and on
// readmission alike.
func (r *Router) qualify(ctx context.Context, rep *replica) error {
	if len(r.cfg.Init) > 0 {
		if err := rep.tc.RestoreState(r.cfg.Init); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	if len(r.cfg.Warmup) > 0 {
		if _, err := rep.b.Do(ctx, r.cfg.Warmup...); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}
	return nil
}

// Close drains the prober and every replica. Outstanding Predicts finish
// (their batches run to completion); new ones fail with ErrUnavailable.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	reps := make([]*replica, 0, len(r.reps))
	for _, rep := range r.reps {
		reps = append(reps, rep)
	}
	r.reps = map[string]*replica{}
	r.order = nil
	r.mu.Unlock()
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	var wg sync.WaitGroup
	for _, rep := range reps {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rep.b.Close()
			rep.tc.Close()
			rep.fleet.Close()
		}(rep)
	}
	wg.Wait()
}

// pick returns the least-loaded active replica not yet in tried (nil when
// none remains).
func (r *Router) pick(tried map[*replica]bool) *replica {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *replica
	var bestLoad int64
	for _, name := range r.order {
		rep := r.reps[name]
		if rep == nil || tried[rep] || rep.getState() != StateActive {
			continue
		}
		if load := rep.load(); best == nil || load < bestLoad {
			best, bestLoad = rep, load
		}
	}
	return best
}

// Predict routes one request: least-loaded dispatch, bounded retries
// against distinct replicas, optional hedging. args zip positionally with
// Config.Feeds.
func (r *Router) Predict(ctx context.Context, args ...*tensor.Tensor) ([]*tensor.Tensor, error) {
	r.requests.Add(1)
	tried := map[*replica]bool{}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep := r.pick(tried)
		if rep == nil && len(tried) > 0 {
			// Every active replica has been tried once this request. If
			// budget remains, start a second pass: a replica that failed a
			// transient step is fair game again once the alternatives have
			// had their turn — that is still not a naked retry against the
			// same broken replica, because a replica the breaker tripped
			// stays excluded by state, not by the tried set.
			tried = map[*replica]bool{}
			rep = r.pick(tried)
		}
		if rep == nil {
			if lastErr != nil {
				return nil, fmt.Errorf("fleetserve: %w: %w", ErrUnavailable, lastErr)
			}
			return nil, ErrUnavailable
		}
		tried[rep] = true
		outs, err := r.attemptHedged(ctx, rep, tried, args)
		if err == nil {
			return outs, nil
		}
		if errors.Is(err, serve.ErrInvalidRequest) {
			// The request itself is malformed; no replica will accept it.
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		if attempt >= r.opts.MaxRetries {
			r.exhausted.Add(1)
			return nil, fmt.Errorf("fleetserve: retry budget exhausted after %d attempts: %w: %w", attempt+1, ErrUnavailable, lastErr)
		}
		r.retries.Add(1)
	}
}

// attemptResult carries one attempt arm's outcome back to the select loop.
type attemptResult struct {
	rep    *replica
	outs   []*tensor.Tensor
	err    error
	hedged bool
}

// attemptHedged runs one attempt on rep and, when hedging is on and the
// primary is slower than the hedge delay, one extra attempt on a different
// replica. First success wins; the loser's attempt context is canceled so
// the batcher drops it (no in-flight leak). Hedge replicas are added to
// tried, so a later retry never re-sends into them either.
func (r *Router) attemptHedged(ctx context.Context, rep *replica, tried map[*replica]bool, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the max arm count: a losing arm's send never blocks, so
	// its goroutine exits even though nobody reads the channel again.
	ch := make(chan attemptResult, 2)
	launch := func(rp *replica, hedged bool) {
		go func() {
			outs, err := r.callReplica(actx, rp, args)
			ch <- attemptResult{rep: rp, outs: outs, err: err, hedged: hedged}
		}()
	}
	launch(rep, false)
	outstanding := 1
	var hedgeTimer <-chan time.Time
	if r.opts.Hedge {
		t := time.NewTimer(r.hedgeDelay())
		defer t.Stop()
		hedgeTimer = t.C
	}
	var firstErr error
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			if hr := r.pick(tried); hr != nil {
				tried[hr] = true
				r.hedges.Add(1)
				launch(hr, true)
				outstanding++
			}
		case res := <-ch:
			outstanding--
			if res.err == nil {
				if res.hedged {
					r.hedgeWins.Add(1)
				}
				cancel() // release the losing arm, if any
				return res.outs, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// callReplica runs one attempt inside rep's batcher, classifying the
// outcome for the breaker: real failures (step errors, timeouts, dead
// transport) count toward tripping; overload and drain signals
// (ErrQueueFull, ErrClosed) are retriable without penalty — tripping an
// overloaded replica would turn load into an outage; a canceled attempt
// (the caller left, or this arm lost its hedge race) is nobody's fault.
func (r *Router) callReplica(ctx context.Context, rep *replica, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	start := time.Now()
	outs, err := rep.b.Do(ctx, args...)
	switch {
	case err == nil:
		r.lat.add(time.Since(start))
		rep.mu.Lock()
		rep.consecFails = 0
		rep.mu.Unlock()
	case ctx.Err() != nil,
		errors.Is(err, serve.ErrInvalidRequest),
		errors.Is(err, serve.ErrQueueFull),
		errors.Is(err, serve.ErrClosed):
		// No breaker penalty.
	default:
		r.recordFailure(rep)
	}
	return outs, err
}

// recordFailure advances rep's consecutive-failure count and trips the
// breaker at the threshold: the replica leaves the pool and its first
// readmission probe is due immediately (the backoff only stretches after
// probes fail too).
func (r *Router) recordFailure(rep *replica) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.consecFails++
	if rep.state == StateActive && rep.consecFails >= r.opts.BreakerThreshold {
		rep.state = StateOpen
		rep.probeAttempt = 0
		rep.nextProbe = time.Now()
		r.ejections.Add(1)
	}
}

// probeLoop drives health checks and breaker recovery.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll probes every replica concurrently (a dead daemon's probe costs
// a dial timeout; serializing would stretch the ejection bound by the
// number of dead replicas).
func (r *Router) probeAll() {
	r.mu.Lock()
	reps := make([]*replica, 0, len(r.reps))
	for _, rep := range r.reps {
		reps = append(reps, rep)
	}
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, rep := range reps {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			r.probe(rep)
		}(rep)
	}
	wg.Wait()
}

// probe advances one replica's health state machine by one tick.
func (r *Router) probe(rep *replica) {
	rep.mu.Lock()
	switch rep.state {
	case StateOpen:
		if time.Now().Before(rep.nextProbe) {
			rep.mu.Unlock()
			return
		}
		rep.state = StateHalfOpen
		rep.mu.Unlock()
		if err := r.readmit(rep); err != nil {
			rep.mu.Lock()
			rep.state = StateOpen
			rep.probeAttempt++
			rep.nextProbe = time.Now().Add(r.opts.BreakerBackoff.Delay(rep.probeAttempt))
			rep.mu.Unlock()
			return
		}
		rep.mu.Lock()
		rep.state = StateActive
		rep.consecFails = 0
		rep.probeAttempt = 0
		rep.mu.Unlock()
		r.readmissions.Add(1)
	case StateActive:
		rep.mu.Unlock()
		for _, w := range rep.workers {
			if !rep.fleet.Live(w) {
				// A daemon is gone: eject now instead of waiting for
				// requests to burn through the breaker threshold.
				rep.mu.Lock()
				if rep.state == StateActive {
					rep.state = StateOpen
					rep.probeAttempt = 0
					rep.nextProbe = time.Now()
					r.ejections.Add(1)
				}
				rep.mu.Unlock()
				return
			}
		}
	default: // joining, half-open: nothing to do this tick
		rep.mu.Unlock()
	}
}

// readmit re-qualifies a tripped replica end to end: every daemon answers
// a liveness probe, the graph is re-registered if any daemon restarted
// (EnsureRegistered notices the control-connection epoch change), Init is
// restored (a restarted daemon came back blank), and a warmup call
// round-trips. Only then does traffic resume.
func (r *Router) readmit(rep *replica) error {
	for _, w := range rep.workers {
		if !rep.fleet.Live(w) {
			return fmt.Errorf("fleetserve: %s: worker %q not live", rep.name, w)
		}
	}
	if err := rep.tc.EnsureRegistered(); err != nil {
		return fmt.Errorf("fleetserve: %s: re-register: %w", rep.name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.StepTimeout)
	defer cancel()
	if err := r.qualify(ctx, rep); err != nil {
		return fmt.Errorf("fleetserve: %s: %w", rep.name, err)
	}
	return nil
}

// hedgeMinDelay floors the p99-derived hedge delay, and stands in for it
// while samples are scarce.
const hedgeMinDelay = 5 * time.Millisecond

// hedgeDelay derives the hedge trigger from observed latency: the p99 of
// recent successful attempts, floored at hedgeMinDelay. Deriving from p99
// keeps hedges rare by construction — ~1% of requests — so the extra load
// cannot run away.
func (r *Router) hedgeDelay() time.Duration {
	return max(r.lat.p99(), hedgeMinDelay)
}

// latRing holds recent attempt latencies for the p99 estimate.
type latRing struct {
	mu  sync.Mutex
	buf [256]time.Duration
	n   int // filled entries (saturates at len(buf))
	idx int
}

func (l *latRing) add(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// p99 returns the 99th-percentile sample, or 0 while fewer than 16 samples
// exist (callers floor it).
func (l *latRing) p99() time.Duration {
	l.mu.Lock()
	n := l.n
	samples := make([]time.Duration, n)
	copy(samples, l.buf[:n])
	l.mu.Unlock()
	if n < 16 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[(n*99)/100]
}

// ReplicaStatus is one replica's row in Snapshot (the /fleetz payload).
type ReplicaStatus struct {
	Name    string   `json:"name"`
	Addrs   []string `json:"addrs"`
	State   string   `json:"state"`
	Workers []string `json:"workers"`
	// ConsecFails is the breaker's consecutive-failure count;
	// ProbeAttempt counts failed readmission probes since the trip.
	ConsecFails  int `json:"consec_fails"`
	ProbeAttempt int `json:"probe_attempt"`
	// NextProbeInMs is the time until the next readmission probe is due
	// (tripped replicas only).
	NextProbeInMs float64 `json:"next_probe_in_ms,omitempty"`
	// InFlight / Queued / InFlightBatches are live occupancy (the
	// dispatch load signal).
	InFlight        int64 `json:"in_flight"`
	Queued          int   `json:"queued"`
	InFlightBatches int   `json:"in_flight_batches"`
	// Serve is the replica batcher's cumulative snapshot.
	Serve serve.Stats `json:"serve"`
}

// Status is the router-wide snapshot.
type Status struct {
	Replicas []ReplicaStatus `json:"replicas"`

	Requests     int64 `json:"requests"`
	Retries      int64 `json:"retries"`
	Exhausted    int64 `json:"exhausted"`
	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedge_wins"`
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
	Joins        int64 `json:"joins"`

	// HedgeDelayMs is the current p99-derived hedge trigger.
	HedgeDelayMs float64 `json:"hedge_delay_ms"`
}

// Snapshot reports per-replica health/breaker/occupancy plus the router's
// counters.
func (r *Router) Snapshot() Status {
	r.mu.Lock()
	reps := make([]*replica, 0, len(r.order))
	for _, name := range r.order {
		if rep := r.reps[name]; rep != nil {
			reps = append(reps, rep)
		}
	}
	r.mu.Unlock()
	st := Status{
		Requests:     r.requests.Value(),
		Retries:      r.retries.Value(),
		Exhausted:    r.exhausted.Value(),
		Hedges:       r.hedges.Value(),
		HedgeWins:    r.hedgeWins.Value(),
		Ejections:    r.ejections.Value(),
		Readmissions: r.readmissions.Value(),
		Joins:        r.joins.Value(),
		HedgeDelayMs: float64(r.hedgeDelay()) / 1e6,
	}
	for _, rep := range reps {
		rep.mu.Lock()
		rs := ReplicaStatus{
			Name:         rep.name,
			Addrs:        rep.addrs,
			Workers:      rep.workers,
			State:        rep.state.String(),
			ConsecFails:  rep.consecFails,
			ProbeAttempt: rep.probeAttempt,
		}
		if rep.state == StateOpen {
			if until := time.Until(rep.nextProbe); until > 0 {
				rs.NextProbeInMs = float64(until) / 1e6
			}
		}
		rep.mu.Unlock()
		rs.InFlight = rep.inflight.Load()
		rs.Serve = rep.b.Snapshot()
		rs.Queued, rs.InFlightBatches = rs.Serve.Queued, rs.Serve.InFlightBatches
		st.Replicas = append(st.Replicas, rs)
	}
	return st
}

// Metrics returns the router's metrics registry, for export alongside the
// process-wide metrics.Default() registry.
func (r *Router) Metrics() *metrics.Registry { return r.reg }
