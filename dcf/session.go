package dcf

import (
	"context"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Feeds supplies placeholder values by name for one Run.
type Feeds = map[string]*Value

// DeviceConfig describes one simulated accelerator attached to a session.
type DeviceConfig struct {
	// Name is the device name used in Graph.WithDevice scopes.
	Name string
	// MemoryBytes caps the device memory (0 = unlimited).
	MemoryBytes int64
	// CopyBandwidth is the simulated host↔device bandwidth, bytes/second
	// (0 = instantaneous transfers).
	CopyBandwidth float64
	// KernelCost, if set, charges a simulated per-op execution time on
	// the device's compute stream (see internal/device.Config).
	KernelCost func(op string) time.Duration
}

// SessionOptions configures session execution.
type SessionOptions struct {
	// Devices lists simulated accelerators; ops on other device names
	// (including "") run on the unconstrained CPU.
	Devices []DeviceConfig
	// Trace enables per-stream kernel timeline recording on the
	// simulated devices.
	Trace bool
}

// Session executes a graph. Close it when done if devices were configured.
//
// A Session is safe for concurrent use: Run, RunCtx, and Callable.Call may
// be invoked from many goroutines at once (the serving deployment of the
// paper's §3 — one graph, many concurrent steps). Each run gets its own
// executor, step resources, and derived RNG stream; session variables are
// shared across runs, and concurrent writes to the same variable have
// last-writer-wins semantics exactly as in TensorFlow.
type Session struct {
	g       *Graph
	s       *core.Session
	cluster *device.Cluster
	tracer  *trace.Tracer
}

// NewSession creates a session with default options.
func NewSession(g *Graph) *Session { return NewSessionOpts(g, SessionOptions{}) }

// NewSessionOpts creates a session with explicit options.
func NewSessionOpts(g *Graph, opts SessionOptions) *Session {
	s := core.NewSession(g.b)
	sess := &Session{g: g, s: s}
	if len(opts.Devices) > 0 {
		if opts.Trace {
			sess.tracer = trace.New()
		}
		cfgs := make([]device.Config, len(opts.Devices))
		for i, d := range opts.Devices {
			cfgs[i] = device.Config{
				Name:          d.Name,
				MemoryBytes:   d.MemoryBytes,
				CopyBandwidth: d.CopyBandwidth,
				KernelCost:    d.KernelCost,
				Tracer:        sess.tracer,
			}
		}
		sess.cluster = device.NewCluster(cfgs...)
		s.Mem = sess.cluster.Mem
		s.Runner = sess.cluster.Runner
	}
	return sess
}

// Close releases device resources.
func (s *Session) Close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// Tracer returns the kernel timeline recorder (nil unless Trace was set).
func (s *Session) Tracer() *trace.Tracer { return s.tracer }

// DevicePeak reports the high-water memory mark of a simulated device
// (0 for unknown devices).
func (s *Session) DevicePeak(name string) int64 {
	if s.cluster == nil {
		return 0
	}
	if d := s.cluster.Device(name); d != nil {
		return d.PeakBytes()
	}
	return 0
}

// InitVariables runs all variable initializers declared on the graph.
func (s *Session) InitVariables() error { return s.s.InitVariables() }

// SaveVariables checkpoints all session variables to path (the paper's §3
// coarse-grained checkpointing: programs run to completion between
// checkpoints).
func (s *Session) SaveVariables(path string) error {
	return checkpoint.SaveFile(path, s.s.SessRes)
}

// RestoreVariables loads a checkpoint written by SaveVariables.
func (s *Session) RestoreVariables(path string) error {
	return checkpoint.RestoreFile(path, s.s.SessRes)
}

// RunMetadata is per-run result metadata, returned by RunCtx and
// Callable.CallCtx and private to that call.
type RunMetadata = core.RunMetadata

// RunOptions names the inputs of one RunCtx call.
type RunOptions struct {
	// Feeds supplies placeholder values by name.
	Feeds Feeds
	// Fetches are the tensors whose values to return, in order.
	Fetches []Tensor
	// Targets are ops to execute without fetching (e.g. train steps).
	// dcfvet:allow deadapi=benchmark/ sets it for the traced rnn_train step behind the span probes
	Targets []Op
	// Trace records one span per node execution into the returned
	// RunMetadata's StepTrace (render with its ChromeTrace or ASCII
	// methods). Off by default: the untraced step path stays zero-overhead.
	Trace bool
}

// RunCtx executes the subgraph needed for the fetches and targets under a
// context: cancellation or deadline expiry stops the executor promptly (no
// new kernels launch, in-flight work drains, pending cross-device
// rendezvous fail) and the returned error wraps ctx.Err(), so client
// disconnects and deadlines stop wasted work.
//
// Repeated runs with the same fetches and targets reuse one cached
// execution plan (the executor's dense per-node metadata: compact indices,
// consumer edge lists, frame/window attributes), so steady-state steps pay
// zero planning cost; any graph mutation invalidates the cache entry. For
// the hottest serving paths, MakeCallable removes the remaining per-call
// signature hashing too. See internal/exec/README.md for the fast-path
// design.
func (s *Session) RunCtx(ctx context.Context, opts RunOptions) ([]*Value, RunMetadata, error) {
	return s.s.RunCtx(ctx, core.RunOptions{Feeds: opts.Feeds, Fetches: unwrap(opts.Fetches), Targets: opNodes(opts.Targets), Trace: opts.Trace})
}

// opNodes collects the non-nil target nodes.
func opNodes(targets []Op) []*graph.Node {
	nodes := make([]*graph.Node, 0, len(targets))
	for _, t := range targets {
		if t.n != nil {
			nodes = append(nodes, t.n)
		}
	}
	return nodes
}

// Run executes the subgraph needed for the fetches and targets, returning
// fetched values in order: a thin shim over the RunCtx path with a
// background context.
func (s *Session) Run(feeds Feeds, fetches []Tensor, targets ...Op) ([]*Value, error) {
	return s.s.Run(feeds, unwrap(fetches), opNodes(targets))
}

// Run1 fetches a single tensor.
func (s *Session) Run1(feeds Feeds, fetch Tensor) (*Value, error) {
	out, err := s.Run(feeds, []Tensor{fetch})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunTargets executes target ops without fetching values.
func (s *Session) RunTargets(feeds Feeds, targets ...Op) error {
	_, err := s.Run(feeds, nil, targets...)
	return err
}

// CallableSpec fixes one run signature for MakeCallable.
type CallableSpec struct {
	// Feeds are placeholder names, bound positionally by Call's args.
	Feeds []string
	// Fetches are returned by each Call, in order.
	Fetches []Tensor
	// Targets are executed by each Call without fetching.
	Targets []Op
}

// Callable is a pre-compiled run signature: MakeCallable prunes the graph
// and builds the executor plan once, so steady-state calls pay no pruning,
// no signature hashing, and no feed-map allocation — the Go analogue of
// TensorFlow's per-signature executors, built for serving hot paths. A
// Callable is immutable and safe for concurrent Call from many goroutines.
type Callable struct {
	c *core.Callable
	s *Session
}

// MakeCallable compiles the spec's run signature once. Create callables
// after graph construction (including Gradients) is complete:
// a Call made after any later graph mutation fails fast rather than
// silently executing the stale compiled plan.
func (s *Session) MakeCallable(spec CallableSpec) (*Callable, error) {
	c, err := s.s.MakeCallable(core.CallableSpec{
		Feeds:   spec.Feeds,
		Fetches: unwrap(spec.Fetches),
		Targets: opNodes(spec.Targets),
	})
	if err != nil {
		return nil, err
	}
	return &Callable{c: c, s: s}, nil
}

// Call executes the compiled signature, binding args positionally to the
// spec's feed names, and returns the fetched values in fetch order.
func (c *Callable) Call(ctx context.Context, args ...*Value) ([]*Value, error) {
	out, _, err := c.CallCtx(ctx, args...)
	return out, err
}

// CallCtx is Call returning the run's metadata as well.
func (c *Callable) CallCtx(ctx context.Context, args ...*Value) ([]*Value, RunMetadata, error) {
	return c.c.CallCtx(ctx, args...)
}
