// Package repro is a from-scratch Go reproduction of "Dynamic Control Flow
// in Large-Scale Machine Learning" (Yu et al., EuroSys 2018): a dataflow
// machine-learning runtime with in-graph conditionals and loops, automatic
// differentiation through control flow, multi-device execution with memory
// swapping, and a distributed runtime.
//
// The public API is package repro/dcf. cmd/dcfbench prints the paper figures
// that internal/bench still drives (Figures 11, 12, 14, Table 1 with
// Figure 13); benchmark/ is the repo benchmark whose numbers gate a PR.
//
// # Serving
//
// The execution API is serving-grade: dcf.Session is safe for concurrent
// Run/RunCtx/Callable.Call from many goroutines, every entry point has a
// context-taking variant whose cancellation drains the executor promptly
// (including cross-partition rendezvous in the distributed runtime), and
// dcf.Session.MakeCallable pre-compiles a run signature so the hot path
// pays no pruning, signature hashing, or feed-map allocation per step —
// the paper's per-signature executors.
//
// On top of the Callable sits dynamic request batching (internal/serve,
// surfaced as dcf.NewServer / Session.MakeBatchedCallable): concurrent
// single-request Predict calls are coalesced into one batched executor
// step — feeds stacked along axis 0, fetches sliced back per request —
// under an adaptive policy (flush at once while an execution slot is
// free; grow batches with load once all are busy; MaxBatchSize and
// MaxQueueDelay bounds; shape-keyed buckets so ragged sequence lengths
// batch with their own kind and never pay padding). Requests are validated at enqueue against declared
// placeholder specs (dcf.Graph.PlaceholderTyped) and a canceled request
// is dropped from its micro-batch without disturbing its neighbors.
//
// See examples/serving for an HTTP model server over the batched path,
// cmd/dcfserve for the production server (JSON predict API, checkpoint
// restore, /healthz, Prometheus /metrics, graceful drain), and the repo
// benchmark's serve_http workload for what a request costs through it.
//
// # Replicated serving
//
// internal/fleetserve extends the serving story across processes: a
// failure-aware router fronts N model replicas, each an independently
// registered graph on cluster.Worker daemons with its own request batcher,
// so a kill -9'd daemon costs capacity — never availability or
// correctness. The router implements least-loaded dispatch over the
// batchers' live occupancy gauges, a bounded retry budget that reroutes
// failed attempts to replicas the request has not tried, per-replica
// circuit breakers (consecutive-failure trip, jittered-exponential
// readmission probes, half-open single-probe recovery), health-checked
// membership (a dead daemon is ejected within one probe interval), and
// optional hedged requests after the observed p99 latency with
// first-response-wins loser cancellation. Replicas are stateless by
// contract: joining and readmission re-register the graph, re-push
// Config.Init, and warm up before any traffic — the serving mirror of the
// training stack's checkpoint/restore.
//
// `dcfserve -replicas addr1,addr2,...` serves the same HTTP API over a
// replica fleet (plus /fleetz for per-replica breaker state and routing
// counters); retriable routing failures map to 503 + Retry-After and
// queue backpressure to 429. The fleet-chaos CI job kills and restarts a
// replica daemon across real OS processes under sustained HTTP load. Shared
// retry hygiene lives in internal/backoff (Jitter, Exp) and is enforced
// by the dcfvet backoffjitter analyzer: no fixed-duration sleeps in retry
// loops.
//
// # Distributed execution
//
// Dynamic control flow runs distributed (§3, §4.4): partitions on
// different workers make independent progress, coordinating only through
// Send/Recv — the driver participates at step start and completion, never
// per iteration. There is one runner: distrib.Dial connects to generic
// worker daemons (internal/cluster.Worker, the cmd/dcfworker CLI) over
// TCP; Fleet.NewCluster places, prunes, partitions and verifies the graph
// (Send/Recv pairing and rendezvous cycles across all partitions, before
// any worker is contacted), ships each daemon its gob-encoded subgraph once
// (plans compile at registration), and TCPCluster.RunCtx runs steps against
// the cached plans. TCPOptions.WorkerOf decides which daemon hosts which
// device: devices on one worker hand tokens over in process and share step
// and session resources, devices on different workers exchange frames over
// TCP, and both layouts compute the same bits — a single loopback worker
// hosting every device is all "in-process multi-device" means. Every step
// executes in a private rendezvous key scope, so an aborted step can never
// leak tokens into the next; driver-side ctx cancellation fans out as an
// abort control message that drains blocked Recvs on every worker. Killing
// a daemon mid-step fails only that step with a wrapped error naming the
// worker; after a restart the driver redials, re-registers, and the next
// step succeeds. Resource handles (stacks, TensorArrays) never cross
// workers: a step that would send one fails saying so.
//
// See internal/cluster/README.md for the wire protocol, step scoping, and
// failure model; examples/tcpcluster for an end-to-end demo; `cmd/dcfbench
// -exp fig11` for the paper's iteration-rate sweep over loopback daemons;
// and the repo benchmark's cluster_loop workload for what a step costs.
//
// # Fault tolerance
//
// Recovery follows the paper's §3 coarse-grained model: an iterative job
// runs between distributed checkpoints of its session variables, and every
// failure — a crashed daemon, a torn connection, an aborted step — is
// handled the same way: roll back to the last checkpoint, rebuild over the
// workers that are alive now, restore, and replay. There is no
// fine-grained recovery inside a step.
//
//   - Checkpoints: TCPCluster.Checkpoint quiesces the cluster at a step
//     boundary, collects each worker's variable shard over the control
//     plane, and writes shards + a manifest durably (temp-file + rename;
//     LATEST flips only after everything below it is complete). A
//     CheckpointEvery policy on the cluster takes one automatically every
//     n-th step. Format and layout: internal/checkpoint/README.md.
//   - Resume: Fleet.Resume re-registers the graph (fresh partitioning over
//     the live workers), re-maps shards to their new hosts by variable
//     name, restores, and positions the step counter — a killed driver or
//     daemon plus a restart yields fetches bit-identical to an
//     uninterrupted run (worker RNG streams are a pure function of the
//     step number, so replayed steps redraw the same randomness).
//   - Rebuild over live workers: a Fleet learns which daemons are gone
//     from liveness probes. distrib.RunJob drives a JobSpec — a graph built
//     as a function of the live worker set — rolling back on step failures
//     under a bounded retry budget, so a dead daemon's shards are
//     reassigned to survivors instead of failing the job.
//
// The chaos CI job exercises the whole stack: a 1000-step two-daemon run
// with one daemon kill -9'd and restarted mid-run must produce exactly the
// fetch sequence of an undisturbed run.
//
// # Static verification
//
// Two layers of static checking run before any graph executes and in CI:
//
//   - Graph verification (internal/verify): a multi-error static analyzer
//     over dataflow graphs — dtype/shape inference with unknown-dimension
//     joins, control-flow structure (frame nesting, Switch/Merge typing,
//     NextIteration back edges, reachable Exits), dead/unfetchable nodes,
//     fetch/feed validity, and Send/Recv key pairing with a
//     cross-partition rendezvous-cycle check. It runs once per graph
//     version when a session compiles a plan (never per step), at worker
//     graph registration (diagnostics travel back in the registration
//     reply), after partitioning, and as a post-pass after graph
//     optimization. `cmd/dcfgraph -lint` runs it from the command line.
//     Details: internal/verify/README.md.
//   - Static memory bounds (verify.EstimateMemory): a liveness analysis
//     over the verified graph that bounds peak tensor residency before
//     anything executes. The bound is symbolic in the unknowns — a base
//     plus per-unknown-row and per-loop-iteration terms — and collapses
//     to a finite byte count when shapes are closed, as every forward
//     model here is; while-loop windows multiply residency by each
//     loop's parallel_iterations (exec.DefaultParallelIterations where a
//     loop declares none). `cmd/dcfgraph -analyze` prints
//     the bound, the peak node, top contributors, and per-node residency,
//     and CI asserts the forward models stay finite. Like verification,
//     estimation runs at plan-compile and lint time — never on the step
//     path. Pool high-water tests (dcf/memguard_test.go) hold the
//     runtime's measured tensor_pool_peak_bytes under each model's
//     static bound.
//   - Code analysis (internal/analysis, cmd/dcfvet): custom analyzers that
//     machine-check repository invariants — kernels claiming input buffers
//     must declare Fresh outputs, gob-encoded wire/checkpoint types must
//     survive the round trip, no bare time.Sleep synchronization in
//     tests, exported entry points must thread context.Context, and no
//     panic() in executor hot paths. On top of the per-package checks,
//     three whole-program analyzers walk a conservative callgraph with
//     per-function effect summaries (internal/analysis/README.md):
//     lockorder reports cyclic mutex-acquisition orders (inter-procedural,
//     through generic helpers and method-value callbacks), goroleak flags
//     spawned goroutines that can block forever with no ctx/quit/close
//     escape, and unsafesend flags channel sends racing a close owned by
//     another function. CI runs dcfvet over ./... (stale allow
//     suppressions fail via -unused-allows) and self-tests every analyzer
//     against a seeded-violation fixture module that must fail.
//
// # Observability
//
// One metrics layer and one tracing model span every runtime layer
// (internal/metrics and internal/trace, each with a README):
//
//   - Metrics: a dependency-free registry of atomic counters, gauges, and
//     log-bucketed latency histograms. The executor, tensor pool, request
//     batcher, cluster worker, and fleet router all register named
//     instruments (exec_*, tensor_pool_*, serve_*, cluster_*, fleet_*);
//     metrics.Handler serves any set of registries as Prometheus text
//     exposition. Instrument names are vet-enforced
//     (the metricname analyzer): snake_case with a unit suffix, counters
//     ending in _total.
//   - Per-step tracing: dcf.RunOptions{Trace: true} records one span per
//     node execution into that run's private RunMetadata.StepTrace —
//     opt-in per step, zero-overhead when off (the alloc-budget test
//     pins this). Render with ChromeTrace (Perfetto-loadable) or ASCII.
//   - Distributed tracing: TCPCluster.RunTraced runs one step with
//     tracing on every worker, each worker returns its spans on the step's
//     own reply, and the driver merges the per-worker timelines into a
//     single Chrome trace — each worker on its own process track, with
//     flow arrows linking every cross-worker Send to its Recv
//     (rendezvous-key-derived correlation ids, no clock agreement
//     required beyond a per-part base offset).
//
// Surfaces: dcfworker's -health address serves /metrics, /debug/pprof,
// and /debug/trace?steps=N (arm tracing for the next N live steps and get
// their merged trace); the driver's -trace flag writes a fleet-wide
// traced step to a file; dcfserve serves /metrics, /debug/pprof, and
// /debug/trace?steps=N (traced probe steps).
//
// # Runtime performance knobs
//
// The executor hot path (internal/exec, see its README.md) is dense-indexed
// and buffer-pooled. The knobs that matter when tuning throughput:
//
//   - WhileOpts.ParallelIterations: the window of one while loop, written
//     as parallel_iterations on the loop's Enters and fixed when a plan is
//     compiled. It also sizes the frame's iteration ring. A loop that
//     declares none runs at exec.DefaultParallelIterations (32), and the
//     static memory bound assumes the same.
//   - GOMAXPROCS: how many kernels run at once. A kernel measured dearer
//     than a hand-off runs on a goroutine of its own and the Go scheduler
//     spreads those over the Ps; there is no worker pool to size.
//   - tensor.Alloc / tensor.Recycle / tensor.NewFromPool: the size-classed
//     tensor buffer pool backing kernel outputs and executor recycling.
//   - cmd/dcfbench -cpuprofile/-memprofile: pprof profiles over any figure
//     experiment, for perf work without code edits.
package repro
