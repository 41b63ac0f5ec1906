package cluster

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Worker-daemon step metrics on the process registry (exported by the
// health server's /metrics endpoint).
var (
	metricClusterSteps  = metrics.Default().Counter("cluster_steps_total")
	metricClusterTraces = metrics.Default().Counter("cluster_traces_total")
	metricStepDuration  = metrics.Default().Histogram("cluster_step_duration_ns")
)

// maxArmed bounds /debug/trace?steps=N: how many armed steps one request
// collects, and how many finished tracers wait for it.
const maxArmed = 8

// Worker is the generic cluster daemon: one OS process hosting any number of
// registered graphs, executing its partitions step by step against cached
// plans, and exchanging tensors with peer workers over the TCP rendezvous.
// It is driven entirely by the control protocol (see proto.go) — it knows
// nothing about the graphs it will run until a driver registers them.
type Worker struct {
	name string
	ctrl net.Listener
	rv   *rendezvous.Net

	mu        sync.Mutex
	graphs    map[uint64]*workerGraph
	conns     map[net.Conn]struct{}
	healthSrv *http.Server
	closed    bool
	wg        sync.WaitGroup

	// traceArm counts steps still to force-trace (the /debug/trace
	// endpoint); each armed step delivers its finished tracer to traceCh.
	traceArm atomic.Int64
	traceCh  chan tracedStep
}

// tracedStep is one armed step's finished trace (see /debug/trace).
type tracedStep struct {
	step uint64
	tr   *trace.Tracer
}

// workerGraph is one cached registration: the rebuilt graph, one compiled
// plan per hosted device, and the per-step bookkeeping that cancellation and
// scope release need.
type workerGraph struct {
	g     *graph.Graph
	parts []WirePartition
	plans map[string]*exec.Plan
	// sessRes persists across the graph's steps (session-lifetime
	// resources); it is lost if the worker restarts — the coarse-grained
	// checkpoint failure model of §3.
	sessRes *ops.Resources
	owner   net.Conn // control conn that registered this graph

	mu       sync.Mutex
	steps    map[uint64]context.CancelFunc // in-flight steps
	released uint64                        // scopes of steps <= released are dropped
}

// NewWorker starts a worker daemon: a control listener on ctrlAddr and a
// rendezvous data plane on dataAddr (use "127.0.0.1:0" to let the kernel
// pick). It serves until Close.
func NewWorker(name, ctrlAddr, dataAddr string) (*Worker, error) {
	rv, err := rendezvous.NewNet(name, dataAddr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", ctrlAddr)
	if err != nil {
		rv.Close()
		return nil, fmt.Errorf("cluster: listen %s: %w", ctrlAddr, err)
	}
	w := &Worker{
		name:    name,
		ctrl:    ln,
		rv:      rv,
		graphs:  map[uint64]*workerGraph{},
		conns:   map[net.Conn]struct{}{},
		traceCh: make(chan tracedStep, maxArmed),
	}
	// Deliveries addressed to released steps (or released graphs) are
	// stragglers: drop them instead of resurrecting their scope tables.
	rv.SetScopeFilter(w.allowScope)
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Name returns the worker's name (rendezvous keys route by it).
func (w *Worker) Name() string { return w.name }

// Addr returns the control address drivers dial.
func (w *Worker) Addr() string { return w.ctrl.Addr().String() }

// DataAddr returns the rendezvous data-plane address peers dial.
func (w *Worker) DataAddr() string { return w.rv.Addr() }

// Rendezvous returns the worker's data plane, for a test holding the worker
// to shape or fault-inject its fabric (Net.SetFabric, Net.SetFaults):
// nothing a client can send reaches those.
// dcfvet:allow deadapi=the only path from a held worker to its Net's SetFabric and SetFaults fault hooks
func (w *Worker) Rendezvous() *rendezvous.Net { return w.rv }

// ServeHealth starts an HTTP readiness endpoint on addr and returns the
// address it actually listens on ("127.0.0.1:0" picks a port). GET
// /healthz answers 200 with the worker's name, registered-graph count, and
// live scope count once the daemon is accepting work — chaos scripts and
// CI poll it instead of sleeping blind. The endpoint dies with the worker.
func (w *Worker) ServeHealth(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: health listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		w.mu.Lock()
		closed := w.closed
		graphs := len(w.graphs)
		w.mu.Unlock()
		if closed {
			http.Error(rw, "shutting down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(rw, "ok %s graphs=%d scopes=%d\n", w.name, graphs, w.rv.ScopeCount())
	})
	mux.Handle("/metrics", metrics.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", w.handleDebugTrace)
	srv := &http.Server{Handler: mux}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("cluster: worker %s closed", w.name)
	}
	if w.healthSrv != nil {
		w.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("cluster: worker %s already serves health", w.name)
	}
	w.healthSrv = srv
	w.mu.Unlock()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close shuts the daemon down: control conns, in-flight steps, data plane.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	for c := range w.conns {
		c.Close()
	}
	graphs := make(map[uint64]*workerGraph, len(w.graphs))
	for gid, g := range w.graphs {
		graphs[gid] = g
	}
	health := w.healthSrv
	w.mu.Unlock()
	if health != nil {
		health.Close()
	}
	w.ctrl.Close()
	for gid, g := range graphs {
		w.abortGraphSteps(gid, g, fmt.Errorf("cluster: worker %s closed", w.name))
	}
	w.rv.Close()
	w.wg.Wait()
}

func (w *Worker) allowScope(scope string) bool {
	gid, step, ok := ParseScope(scope)
	if !ok {
		return true // not a step scope: unscoped traffic stays untouched
	}
	w.mu.Lock()
	g := w.graphs[gid]
	w.mu.Unlock()
	if g == nil {
		return false // released or never-registered graph
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return step > g.released
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ctrl.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.handleConn(conn)
	}
}

// handleConn serves one driver session. Requests are decoded in order;
// steps run asynchronously so Abort requests behind them are still seen.
func (w *Worker) handleConn(conn net.Conn) {
	defer w.wg.Done()
	var wmu sync.Mutex // serializes response writes from step goroutines
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	send := func(resp *RespEnvelope) {
		wmu.Lock()
		defer wmu.Unlock()
		_ = enc.Encode(resp) // a broken conn surfaces on the next Decode
	}
	var registered []uint64
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
		// The driver is gone: tear down what it registered, unless a
		// reconnected driver has already re-registered the graph (then the
		// new conn owns it). The ownership check happens inside
		// releaseGraphIf's critical section — checking here and releasing
		// there would race a concurrent re-registration and delete the new
		// owner's graph.
		for _, gid := range registered {
			w.releaseGraphIf(gid, conn, fmt.Errorf("cluster: driver connection lost"))
		}
	}()
	for {
		var env Envelope
		if err := dec.Decode(&env); err != nil {
			return
		}
		switch {
		case env.Hello != nil:
			send(&RespEnvelope{Hello: &HelloResp{Worker: w.name, DataAddr: w.rv.Addr()}})
		case env.Reg != nil:
			err := w.register(env.Reg, conn)
			if err == nil {
				registered = append(registered, env.Reg.GraphID)
			}
			send(&RespEnvelope{Reg: &RegResp{GraphID: env.Reg.GraphID, Err: wrapErr(err)}})
		case env.Step != nil:
			req := env.Step
			w.mu.Lock()
			g := w.graphs[req.GraphID]
			w.mu.Unlock()
			if g == nil {
				send(&RespEnvelope{Step: &StepResp{GraphID: req.GraphID, Step: req.Step,
					Err: fmt.Sprintf("cluster: worker %s: graph %d not registered", w.name, req.GraphID)}})
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			g.mu.Lock()
			g.steps[req.Step] = cancel
			// Advance the watermark of cluster-wide completed steps.
			advanced := req.ReleaseThrough > g.released
			if advanced {
				g.released = req.ReleaseThrough
			}
			g.mu.Unlock()
			// Drop every live scope at or below the watermark — a sweep of
			// the live tables (bounded by the in-flight window plus any
			// straggler-created entries), never a replay of step history.
			// It runs outside g.mu: the rendezvous delivery path evaluates
			// the scope filter (which takes g.mu) under its own lock, so
			// holding g.mu across a release would invert the order.
			if advanced {
				gid := req.GraphID
				through := req.ReleaseThrough
				w.rv.ReleaseScopesIf(func(scope string) bool {
					g2, s2, ok := ParseScope(scope)
					return ok && g2 == gid && s2 <= through
				})
			}
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				resp := w.runStep(g, req, ctx)
				g.mu.Lock()
				delete(g.steps, req.Step)
				g.mu.Unlock()
				cancel()
				send(&RespEnvelope{Step: resp})
			}()
		case env.Abort != nil:
			w.mu.Lock()
			g := w.graphs[env.Abort.GraphID]
			w.mu.Unlock()
			if g == nil {
				continue
			}
			reason := env.Abort.Reason
			if reason == "" {
				reason = "aborted by driver"
			}
			err := fmt.Errorf("cluster: step %d aborted: %s", env.Abort.Step, reason)
			// Abort the scope first so blocked Recvs drain, then cancel
			// the executors' context so they stop launching kernels.
			w.rv.AbortScope(ScopeName(env.Abort.GraphID, env.Abort.Step), err)
			g.mu.Lock()
			cancel := g.steps[env.Abort.Step]
			g.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		case env.Ckpt != nil:
			send(&RespEnvelope{Ckpt: w.checkpointGraph(env.Ckpt)})
		case env.Restore != nil:
			send(&RespEnvelope{Restore: w.restoreGraph(env.Restore)})
		case env.Release != nil:
			w.releaseGraph(env.Release.GraphID, fmt.Errorf("cluster: graph released"))
		}
	}
}

// quiescedGraph looks a graph up and verifies no steps are in flight — the
// precondition of both checkpoint and restore. The driver guarantees it by
// quiescing the step window first; a violation is reported, not tolerated,
// because a snapshot raced by a step would be silently inconsistent.
func (w *Worker) quiescedGraph(gid uint64, op string) (*workerGraph, error) {
	w.mu.Lock()
	g := w.graphs[gid]
	w.mu.Unlock()
	if g == nil {
		return nil, fmt.Errorf("cluster: worker %s: graph %d not registered", w.name, gid)
	}
	g.mu.Lock()
	inflight := len(g.steps)
	g.mu.Unlock()
	if inflight > 0 {
		return nil, fmt.Errorf("cluster: worker %s: %s with %d steps in flight", w.name, op, inflight)
	}
	return g, nil
}

// checkpointGraph snapshots the graph's session variables — this worker's
// shard of a distributed checkpoint.
func (w *Worker) checkpointGraph(req *CheckpointReq) *CheckpointResp {
	resp := &CheckpointResp{GraphID: req.GraphID, Step: req.Step}
	g, err := w.quiescedGraph(req.GraphID, "checkpoint")
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	vars, err := checkpoint.Capture(g.sessRes)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Vars = SnapshotsToWire(vars)
	return resp
}

// restoreGraph installs variable values into the graph's session container
// (resume-from-checkpoint, or seeding a fresh job's initial state).
func (w *Worker) restoreGraph(req *RestoreReq) *RestoreResp {
	resp := &RestoreResp{GraphID: req.GraphID}
	g, err := w.quiescedGraph(req.GraphID, "restore")
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	vars, err := SnapshotsFromWire(req.Vars)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	if err := checkpoint.Apply(vars, g.sessRes); err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// register rebuilds the graph, compiles one plan per hosted device, and
// installs the registration (replacing any previous one under the same id).
func (w *Worker) register(rg *RegisterGraph, owner net.Conn) error {
	g, byName, err := BuildGraph(rg.Nodes)
	if err != nil {
		return err
	}
	resolve := func(wo WireOutput) (graph.Output, error) {
		n := byName[wo.Node]
		if n == nil {
			return graph.Output{}, fmt.Errorf("cluster: fetch references unknown node %q", wo.Node)
		}
		return n.Out(wo.Index), nil
	}
	plans := make(map[string]*exec.Plan, len(rg.Parts))
	for _, part := range rg.Parts {
		nodes := make([]*graph.Node, 0, len(part.Nodes))
		for _, name := range part.Nodes {
			n := byName[name]
			if n == nil {
				return fmt.Errorf("cluster: partition %q lists unknown node %q", part.Device, name)
			}
			nodes = append(nodes, n)
		}
		fetches := make([]graph.Output, 0, len(part.Fetches))
		for _, f := range part.Fetches {
			o, err := resolve(f)
			if err != nil {
				return err
			}
			fetches = append(fetches, o)
		}
		// A remote master is a trust boundary: refuse a partition that
		// cannot execute (bad arities, broken frames, dead merges) at
		// registration, with diagnostics in the RegResp, rather than
		// hanging or failing at step time. Partial mode — the peer ends
		// of Send/Recv pairs live on other workers.
		if ds := verify.Check(g, verify.Options{Nodes: nodes}); len(ds) != 0 {
			return fmt.Errorf("cluster: partition %q failed verification: %w", part.Device, ds.Err())
		}
		p, err := exec.NewPlan(g, exec.PlanOptions{
			Nodes:       nodes,
			Fetches:     fetches,
			TraceStream: part.Device,
		})
		if err != nil {
			return fmt.Errorf("cluster: partition %q: %w", part.Device, err)
		}
		plans[part.Device] = p
	}
	for peer, addr := range rg.Peers {
		if peer != w.name {
			w.rv.AddPeer(peer, addr)
		}
	}
	wg := &workerGraph{
		g:       g,
		parts:   rg.Parts,
		plans:   plans,
		sessRes: ops.NewResources(),
		owner:   owner,
		steps:   map[uint64]context.CancelFunc{},
	}
	w.mu.Lock()
	old := w.graphs[rg.GraphID]
	if old != nil {
		// Re-registration of the same graph id is the same session: the
		// driver re-registers every participant when any one of them
		// reconnects, and a surviving worker's variables must outlive
		// that — only a worker restart loses session state (§3).
		wg.sessRes = old.sessRes
	}
	w.graphs[rg.GraphID] = wg
	w.mu.Unlock()
	if old != nil {
		w.abortGraphSteps(rg.GraphID, old, fmt.Errorf("cluster: graph %d re-registered", rg.GraphID))
		w.dropScopes(rg.GraphID)
	}
	return nil
}

// releaseGraph aborts a graph's in-flight steps, drops its scopes, and
// forgets the registration.
func (w *Worker) releaseGraph(gid uint64, cause error) {
	w.releaseGraphIf(gid, nil, cause)
}

// releaseGraphIf is releaseGraph conditioned on ownership: when owner is
// non-nil the registration is only torn down if that control conn still
// owns it, atomically with the lookup — so a disconnect's deferred cleanup
// can never delete a graph a reconnected driver just re-registered.
func (w *Worker) releaseGraphIf(gid uint64, owner net.Conn, cause error) {
	w.mu.Lock()
	g := w.graphs[gid]
	if g == nil || (owner != nil && g.owner != owner) {
		w.mu.Unlock()
		return
	}
	delete(w.graphs, gid)
	w.mu.Unlock()
	w.abortGraphSteps(gid, g, cause)
	w.dropScopes(gid)
}

// dropScopes releases every scope the graph still holds. Later stragglers
// are discarded by the scope filter (the graph is unregistered or its
// released watermark covers them).
func (w *Worker) dropScopes(gid uint64) {
	w.rv.ReleaseScopesIf(func(scope string) bool {
		g2, _, ok := ParseScope(scope)
		return ok && g2 == gid
	})
}

// abortGraphSteps fails every in-flight step of the graph: the step scope
// aborts (blocked Recvs drain with cause) and the executors' context is
// canceled (no new kernels launch).
func (w *Worker) abortGraphSteps(gid uint64, g *workerGraph, cause error) {
	g.mu.Lock()
	steps := make(map[uint64]context.CancelFunc, len(g.steps))
	for s, c := range g.steps {
		steps[s] = c
	}
	g.mu.Unlock()
	for s, cancel := range steps {
		w.rv.AbortScope(ScopeName(gid, s), cause)
		cancel()
	}
}

// runStep executes one step across the worker's device partitions: one
// executor per device, one set of step resources shared by all of them,
// coordination only through the (step-scoped) rendezvous.
// The first partition failure aborts the scope so sibling partitions drain.
func (w *Worker) runStep(g *workerGraph, req *StepReq, ctx context.Context) *StepResp {
	stepStart := time.Now()
	defer func() {
		metricClusterSteps.Inc()
		metricStepDuration.Observe(time.Since(stepStart).Nanoseconds())
	}()
	resp := &StepResp{GraphID: req.GraphID, Step: req.Step}
	feeds, err := FeedsFromWire(req.Feeds)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	scope := ScopeName(req.GraphID, req.Step)
	rv := w.rv.Scope(scope)

	// Trace when the driver asked (StepReq.Trace) or the /debug/trace
	// endpoint armed forced tracing. One tracer spans every partition of the
	// step; partitions write to distinct streams (TraceStream = device). The
	// driver's trace goes home on the step's own reply; an armed one goes to
	// the /debug/trace request waiting for it.
	armed := false
	var tracer *trace.Tracer
	if !req.Trace {
		armed = w.armTraced()
	}
	if req.Trace || armed {
		tracer = trace.New()
		metricClusterTraces.Inc()
		defer func() {
			if req.Trace {
				resp.Base = tracer.Base().UnixNano()
				resp.Spans = tracer.Events()
				return
			}
			select {
			case w.traceCh <- tracedStep{step: req.Step, tr: tracer}:
			default: // nobody is waiting anymore; drop
			}
		}()
	}

	stepRes := ops.NewResources()
	type devResult struct {
		dev  string
		vals []ops.Value
		err  error
	}
	results := make(chan devResult, len(g.parts))
	for _, part := range g.parts {
		go func(dev string) {
			vals, _, err := g.plans[dev].Run(exec.Binding{
				Ctx:        ctx,
				Feeder:     exec.MapFeeder(feeds),
				StepRes:    stepRes,
				SessionRes: g.sessRes,
				// The RNG stream is a pure function of the step number —
				// deliberately independent of GraphID, which changes when a
				// resumed or rebuilt job re-registers. A job replayed from a
				// checkpoint therefore draws identical random numbers and
				// reproduces an uninterrupted run bit for bit.
				RNG:        tensor.NewRNG(req.Step*1000003 + 17),
				Rendezvous: rv,
				Trace:      tracer,
			})
			results <- devResult{dev: dev, vals: vals, err: err}
		}(part.Device)
	}
	collected := map[string][]ops.Value{}
	var firstErr error
	for range g.parts {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker %s partition %q: %w", w.name, r.dev, r.err)
			// Drain this worker's sibling partitions; remote partitions
			// learn through the driver's AbortReq fan-out.
			rv.Abort(firstErr)
		}
		collected[r.dev] = r.vals
	}
	if firstErr != nil {
		resp.Err = firstErr.Error()
		return resp
	}
	for _, part := range g.parts {
		vals := collected[part.Device]
		for i := range part.Fetches {
			t, err := vals[i].Tensor()
			if err != nil {
				resp.Err = fmt.Sprintf("worker %s fetch %s: %v", w.name, part.Fetches[i].Node, err)
				return resp
			}
			resp.Vals = append(resp.Vals, TensorToWire(t))
		}
	}
	return resp
}

// armTraced consumes one /debug/trace arming, if any remain.
func (w *Worker) armTraced() bool {
	for {
		n := w.traceArm.Load()
		if n <= 0 {
			return false
		}
		if w.traceArm.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// handleDebugTrace serves GET /debug/trace?steps=N: arm forced tracing of
// the next N steps this daemon executes (any graph, any driver), wait for
// them to finish, and return the merged Chrome trace-event JSON. Pair it
// with a driver issuing steps; with no steps arriving the request times out
// (timeout_ms, default 30s) and reports what it collected.
func (w *Worker) handleDebugTrace(rw http.ResponseWriter, r *http.Request) {
	n := 1
	if s := r.URL.Query().Get("steps"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 || v > maxArmed {
			http.Error(rw, fmt.Sprintf("steps must be in [1, %d]", maxArmed), http.StatusBadRequest)
			return
		}
		n = v
	}
	timeout := 30 * time.Second
	if s := r.URL.Query().Get("timeout_ms"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			timeout = time.Duration(v) * time.Millisecond
		}
	}
	// Drain any tracer a previous (abandoned) arming left behind, then arm.
	for {
		select {
		case <-w.traceCh:
			continue
		default:
		}
		break
	}
	w.traceArm.Add(int64(n))
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	var steps []tracedStep
collect:
	for len(steps) < n {
		select {
		case ts := <-w.traceCh:
			steps = append(steps, ts)
		case <-deadline.C:
			break collect
		case <-r.Context().Done():
			break collect
		}
	}
	// Disarm whatever was not consumed (without going negative: a step may
	// have claimed an arming and not delivered yet).
	for {
		cur := w.traceArm.Load()
		left := min(cur, int64(n-len(steps)))
		if left <= 0 || w.traceArm.CompareAndSwap(cur, cur-left) {
			break
		}
	}
	if len(steps) == 0 {
		http.Error(rw, fmt.Sprintf("no step executed within %v; issue steps while this request waits", timeout), http.StatusGatewayTimeout)
		return
	}
	parts := make([]trace.Part, len(steps))
	for i, ts := range steps {
		parts[i] = trace.Part{
			PID:    i + 1,
			Name:   fmt.Sprintf("%s step %d", w.name, ts.step),
			Base:   ts.tr.Base().UnixNano(),
			Events: ts.tr.Events(),
		}
	}
	js, err := trace.MergeChrome(parts)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	_, _ = rw.Write(js)
}
