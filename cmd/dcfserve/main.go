// Command dcfserve is a production-shaped HTTP model server over the
// batched serving layer: the paper's deployment story (one graph with
// dynamic control flow driving many concurrent steps inside a multi-tenant
// server) with TensorFlow-Serving-style adaptive request batching on top.
//
//	dcfserve -addr 127.0.0.1:8080 -batch 32 -delay 2ms
//	dcfserve -checkpoint model.ckpt              # restore trained weights
//	dcfserve -write-checkpoint model.ckpt        # init + save, then exit
//	dcfserve -replicas 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	                                             # fleet mode: route over
//	                                             # replica daemons
//
// Endpoints:
//
//	POST /predict   {"x": [d floats]}  or  {"instances": [[d floats], ...]}
//	                → {"scores": [...]} / {"scores": [[...], ...]}
//	                (see "The /predict contract" below)
//	GET  /healthz   liveness (200 once serving; 503 + Retry-After while
//	                draining or when no replica is available)
//	GET  /metrics   Prometheus text exposition: process-wide families
//	                (exec_*, tensor_pool_*, and the handler's own
//	                dcfserve_predict_{read,decode,wait,encode}_ns and
//	                dcfserve_predict_body_bytes) plus the mode's own — the
//	                batcher's serve_* in single-process mode, the router's
//	                fleet_* in fleet mode
//	GET  /debug/pprof/  standard Go profiling endpoints (heap numbers
//	                    come from /debug/pprof/heap)
//	GET  /debug/trace?steps=N   single-process mode: run N traced probe
//	                steps and return one Chrome trace-event JSON document
//	                (load in Perfetto); fleet mode answers 501 — trace the
//	                replica daemons' own /debug/trace instead
//	GET  /fleetz    fleet mode only: the router's full status — per-replica
//	                breaker state, occupancy, and routing counters
//
// # The /predict contract
//
// The body is one JSON object, read whole (at most 64 KiB + 32 bytes per
// float of a full -batch × -dim request; more is a 413) and parsed in one
// pass straight into the step's feed tensor. Key "x" holds one instance,
// an array of exactly -dim numbers, and is answered {"scores": [...]};
// key "instances" holds 1 to -batch such arrays and is answered
// {"scores": [[...], ...]}, one row per instance. Everything else is as
// encoding/json would have it for struct{X []float64; Instances
// [][]float64}, which is what the handler used to decode with and what the
// tests still pin it to, bit for bit: keys match case-insensitively
// (escapes honoured), other keys are skipped whatever they hold, a later
// duplicate of a key replaces the earlier, null unsets a key, instances
// wins when both are set, numbers are any JSON number a float64 can hold
// (correctly rounded; 1e999 is refused), nesting stops at 10000, and
// nothing after the object's closing brace is looked at. The one named
// divergence: a null where a number belongs is a 400, where encoding/json
// quietly read it as 0 (or, under a duplicate key, as whatever the earlier
// value had there).
//
// Scores are written as encoding/json writes float64s, byte for byte, with
// Content-Length set. Status codes: 200; 400 for a body that is malformed
// or the wrong shape (a width other than -dim, no or too many instances);
// 405 for anything but POST; 413 for an oversized body; 429 when the
// batching queue is full; 503 + Retry-After while draining, closing, or
// (fleet mode) out of healthy replicas or retry budget; 500 if the step
// fails or a score is NaN or infinite. Both modes share the one handler.
//
// In single-process mode every predict request rides the shared
// dcf.Server: concurrent requests coalesce into one batched executor step
// (feeds stacked along axis 0, scores sliced back per request), so
// throughput scales with load instead of paying full per-step runtime
// overhead per request. Request contexts thread through to the batcher — a
// disconnected client is dropped from its micro-batch without disturbing
// its neighbors.
//
// In fleet mode (-replicas) the same HTTP surface fronts a
// fleetserve.Router over N replica daemons (start them with dcfworker):
// least-loaded dispatch, per-replica circuit breakers, bounded rerouted
// retries, and automatic readmission of restarted daemons. A kill -9'd
// daemon costs capacity, never availability: requests reroute to the
// survivors and the restarted daemon is re-registered, re-initialized, and
// readmitted without operator action. Retriable routing failures
// (fleetserve.ErrUnavailable) map to 503 + Retry-After; queue-full
// backpressure maps to 429, exactly as in single-process mode.
//
// Shutdown is graceful in both modes: SIGINT/SIGTERM flips the server into
// draining — /predict and /healthz answer 503 + Retry-After immediately
// (clients and load balancers reroute instead of hanging on a dying
// socket) — then after -drain-notice the listener stops, in-flight HTTP
// requests finish (bounded by -drain), and the batching layer drains so no
// accepted request is ever dropped mid-batch.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/dcf"
	"repro/internal/core"
	"repro/internal/fleetserve"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// model bundles the session and batched server for one served signature.
type model struct {
	sess *dcf.Session
	srv  *dcf.Server
	// scores is the served output tensor, kept so /debug/trace can drive
	// traced probe steps through the same subgraph Predict serves.
	scores dcf.Tensor
	dim    int
}

// buildModel constructs score = softmax(tanh(x@W1 + b1)@W2) over a typed
// [-1, dim] placeholder, with the weights as session variables so a
// checkpoint (-checkpoint) can replace them.
func buildModel(dim, classes int, opts dcf.BatchOptions) (*model, error) {
	g := dcf.NewGraph()
	x := g.PlaceholderTyped("x", dcf.Float, -1, dim)
	w1 := g.Variable("w1", dcf.GlorotUniform(1, dim, dim))
	b1 := g.Variable("b1", dcf.Zeros(dim))
	w2 := g.Variable("w2", dcf.GlorotUniform(2, dim, classes))
	scores := x.MatMul(w1).Add(b1).Tanh().MatMul(w2).Softmax()
	if err := g.Err(); err != nil {
		return nil, err
	}
	sess := dcf.NewSession(g)
	if err := sess.InitVariables(); err != nil {
		return nil, err
	}
	srv, err := dcf.NewServer(sess, dcf.CallableSpec{
		Feeds:   []string{"x"},
		Fetches: []dcf.Tensor{scores},
	}, opts)
	if err != nil {
		return nil, err
	}
	return &model{sess: sess, srv: srv, scores: scores, dim: dim}, nil
}

// handleDebugTrace runs N traced probe steps (zero-filled single-row
// feeds through the served subgraph) and replies with one merged Chrome
// trace-event JSON document — the single-process analogue of the worker
// daemon's /debug/trace, which snapshots live steps instead.
func (m *model) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	n := 1
	if s := r.URL.Query().Get("steps"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 || v > 64 {
			http.Error(w, "steps must be an integer in [1, 64]", http.StatusBadRequest)
			return
		}
		n = v
	}
	parts := make([]trace.Part, 0, n)
	for i := 0; i < n; i++ {
		_, md, err := m.sess.RunCtx(r.Context(), dcf.RunOptions{
			Feeds:   dcf.Feeds{"x": tensor.Zeros(1, m.dim)},
			Fetches: []dcf.Tensor{m.scores},
			Trace:   true,
		})
		if err != nil {
			http.Error(w, fmt.Sprintf("probe step %d: %v", i, err), http.StatusInternalServerError)
			return
		}
		tr := md.StepTrace
		if tr == nil {
			http.Error(w, "probe step returned no trace", http.StatusInternalServerError)
			return
		}
		parts = append(parts, trace.Part{
			PID:    i + 1,
			Name:   fmt.Sprintf("probe step %d", i),
			Base:   tr.Base().UnixNano(),
			Events: tr.Events(),
		})
	}
	js, err := trace.MergeChrome(parts)
	if err != nil {
		http.Error(w, fmt.Sprintf("merge trace: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(js)
}

// fleetConfig builds the replicated-serving model: scores =
// tanh(x@W1)@W2 with deterministic weights held as session state
// (Config.Init), so every replica serves identical answers and a
// restarted daemon is provably re-initialized by readmission rather than
// limping along blank.
func fleetConfig(dim, classes int) fleetserve.Config {
	build := func(workers []string) (*core.Builder, []graph.Output, error) {
		b := core.NewBuilder()
		var scores graph.Output
		b.WithDevice(workers[0]+"/cpu", func() {
			x := b.Placeholder("x")
			scores = b.MatMul(b.Tanh(b.MatMul(x, b.ReadVariable("w1"))), b.ReadVariable("w2"))
		})
		return b, []graph.Output{scores}, b.Err()
	}
	return fleetserve.Config{
		Build:  build,
		Feeds:  []string{"x"},
		Init:   map[string]*tensor.Tensor{"w1": detWeights(dim, dim), "w2": detWeights(dim, classes)},
		Warmup: []*tensor.Tensor{tensor.Zeros(1, dim)},
	}
}

// detWeights fills a [rows, cols] weight matrix with a fixed small-valued
// pattern: deterministic across replicas and restarts by construction.
func detWeights(rows, cols int) *tensor.Tensor {
	w := tensor.Zeros(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			w.F[i*cols+j] = float64((i*31+j*17)%13-6) / 20
		}
	}
	return w
}

// fleetModel fronts a fleetserve.Router with the same HTTP contract as the
// single-process model.
type fleetModel struct {
	router *fleetserve.Router
}

// handleFleetz reports the router's full status: per-replica breaker
// state, occupancy, and the routing counters.
func (m *fleetModel) handleFleetz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m.router.Snapshot())
}

// activeReplicas counts replicas currently taking traffic.
func (m *fleetModel) activeReplicas() int {
	n := 0
	for _, rs := range m.router.Snapshot().Replicas {
		if rs.State == fleetserve.StateActive.String() {
			n++
		}
	}
	return n
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dim := flag.Int("dim", 16, "model input width")
	classes := flag.Int("classes", 4, "model output classes")
	checkpoint := flag.String("checkpoint", "", "restore variables from this checkpoint before serving")
	writeCkpt := flag.String("write-checkpoint", "", "initialize variables, save them here, and exit (bootstrap a servable checkpoint)")
	batch := flag.Int("batch", 32, "max rows per micro-batch")
	delay := flag.Duration("delay", 2*time.Millisecond, "max time a request waits for batch-mates")
	inflight := flag.Int("inflight", 2, "max concurrently executing batches")
	queue := flag.Int("queue", 1024, "max queued requests before backpressure (429)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown bound for in-flight HTTP requests")
	drainNotice := flag.Duration("drain-notice", time.Second, "how long to answer 503 + Retry-After before the listener stops (lets load balancers reroute)")
	replicas := flag.String("replicas", "", "fleet mode: comma-separated replica daemon addresses (join several with '+' for one multi-worker replica)")
	probe := flag.Duration("probe", 500*time.Millisecond, "fleet mode: replica health-probe interval")
	retries := flag.Int("retries", 2, "fleet mode: retry budget per request (attempts beyond the first)")
	hedge := flag.Bool("hedge", false, "fleet mode: hedge slow requests on a second replica after the observed p99 latency")
	stepTimeout := flag.Duration("step-timeout", 10*time.Second, "fleet mode: per-batched-step deadline (hung steps become retriable failures)")
	flag.Parse()
	if *batch <= 0 {
		*batch = 32 // the batcher's own default; the request decoder needs the number too
	}

	bopts := dcf.BatchOptions{
		MaxBatchSize:      *batch,
		MaxQueueDelay:     *delay,
		MaxInFlight:       *inflight,
		MaxQueuedRequests: *queue,
	}

	// draining flips on the shutdown signal, before the listener stops:
	// probes and predicts get an explicit retriable 503 instead of a
	// connection reset, in both serving modes (and in fleet mode a
	// drained-but-alive front end is distinguishable from a dead one).
	var draining atomic.Bool

	mux := http.NewServeMux()
	// /metrics is the Prometheus text exposition, registered per serving
	// mode below so it includes the mode's own instrument registry.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	var cleanup func()
	if *replicas != "" {
		groups := make([][]string, 0, 8)
		for _, g := range strings.Split(*replicas, ",") {
			if g = strings.TrimSpace(g); g != "" {
				groups = append(groups, strings.Split(g, "+"))
			}
		}
		if len(groups) == 0 {
			log.Fatalf("-replicas given but no addresses parsed from %q", *replicas)
		}
		router, err := fleetserve.New(context.Background(), fleetConfig(*dim, *classes), fleetserve.Options{
			ProbeInterval: *probe,
			MaxRetries:    *retries,
			Hedge:         *hedge,
			StepTimeout:   *stepTimeout,
			Batch: serve.Options{
				MaxBatchSize:      *batch,
				MaxQueueDelay:     *delay,
				MaxInFlight:       *inflight,
				MaxQueuedRequests: *queue,
			},
		}, groups...)
		if err != nil {
			log.Fatalf("join replicas: %v", err)
		}
		fm := &fleetModel{router: router}
		mux.Handle("/metrics", metrics.Handler(metrics.Default(), router.Metrics()))
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "step tracing is per-process: hit /debug/trace on a replica daemon's health address instead", http.StatusNotImplemented)
		})
		mux.Handle("/predict", newPredictor(router.Predict, false, *dim, *batch, &draining))
		mux.HandleFunc("/fleetz", fm.handleFleetz)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			if draining.Load() {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
				return
			}
			if fm.activeReplicas() == 0 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"status":"no active replicas"}`, http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		cleanup = func() {
			router.Close()
			st := router.Snapshot()
			log.Printf("dcfserve: fleet drained; %d requests, %d retries, %d ejections, %d readmissions",
				st.Requests, st.Retries, st.Ejections, st.Readmissions)
		}
		log.Printf("dcfserve: fleet mode over %d replicas (%s)", len(groups), *replicas)
	} else {
		m, err := buildModel(*dim, *classes, bopts)
		if err != nil {
			log.Fatalf("build model: %v", err)
		}
		if *writeCkpt != "" {
			if err := m.sess.SaveVariables(*writeCkpt); err != nil {
				log.Fatalf("write checkpoint: %v", err)
			}
			log.Printf("wrote checkpoint %s", *writeCkpt)
			return
		}
		if *checkpoint != "" {
			if err := m.sess.RestoreVariables(*checkpoint); err != nil {
				log.Fatalf("restore checkpoint %s: %v", *checkpoint, err)
			}
			log.Printf("restored checkpoint %s", *checkpoint)
		}

		mux.Handle("/metrics", metrics.Handler(metrics.Default(), m.srv.Metrics()))
		mux.HandleFunc("/debug/trace", m.handleDebugTrace)
		mux.Handle("/predict", newPredictor(m.srv.Predict, true, *dim, *batch, &draining))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			if draining.Load() {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		cleanup = func() {
			// Drain the batching layer: every accepted Predict completes.
			m.srv.Close()
			m.sess.Close()
			s := m.srv.Stats()
			log.Printf("dcfserve: drained; served %d requests in %d batches (avg occupancy %.1f rows)",
				s.BatchedRequests, s.Batches, s.AvgBatchRows())
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("dcfserve: serving on http://%s (batch=%d delay=%v inflight=%d)", *addr, *batch, *delay, *inflight)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	// Graceful drain, phase 1: keep answering, but with 503 + Retry-After,
	// so pollers and load balancers reroute before the socket goes away.
	draining.Store(true)
	log.Printf("dcfserve: draining (503 + Retry-After for %v, then stopping the listener; in-flight bound %v)", *drainNotice, *drain)
	noticeCtx, noticeCancel := context.WithTimeout(context.Background(), *drainNotice)
	<-noticeCtx.Done()
	noticeCancel()
	// Phase 2: stop the listener, let in-flight HTTP requests finish.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("dcfserve: http shutdown: %v", err)
	}
	// Phase 3: drain the batching/routing layer.
	cleanup()
}
