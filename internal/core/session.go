package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Session executes graphs. It owns session-lifetime resources (variables)
// and per-run step resources, prunes each run's subgraph to what the
// fetches and targets need, and drives the local executor. Multi-device
// placement within one process is supported directly; the distributed
// runtime (internal/distrib) builds on the same executor with partitioned
// graphs.
//
// A Session is safe for concurrent use: Run, RunCtx, and Callable.Call may
// be invoked from many goroutines at once. Each run gets its own executor,
// its own step resources, and its own derived RNG stream; the plan cache is
// lock-guarded; session variables are shared (reads race with concurrent
// writes exactly as in TensorFlow — coordinate training steps yourself).
type Session struct {
	B *Builder

	// SessRes holds variables across runs.
	SessRes *ops.Resources
	// The two fields below are read when a run signature is compiled (the
	// first Run of the signature, or MakeCallable) and fixed in its plan: set
	// them before the session runs anything.
	//
	// Mem and Runner configure per-device memory systems and kernel
	// runners (both may be nil).
	Mem    func(device string) ops.DeviceMem
	Runner func(device string) exec.Runner

	// baseSeed and runSeq derive a private RNG stream per run, so
	// concurrent runs never contend on (or race over) one generator.
	baseSeed uint64
	runSeq   atomic.Uint64

	// mu guards the plan cache; statsMu guards lastStats.
	mu sync.RWMutex
	// plans caches pruned subgraphs and executor plans per run signature
	// (fetches + targets + graph version), like TensorFlow's
	// per-signature executors. The graph version component invalidates
	// entries on any mutation, including in-place optimizer rewrites;
	// plansVersion tracks which version the cache holds so stale
	// generations are dropped rather than accreted.
	plans        map[string]*exec.Plan
	plansVersion uint64

	// verified* cache the whole-graph static verification result
	// (internal/verify) per graph version, so verification runs once per
	// compile generation — at plan-build time, never per step. Guarded
	// by mu.
	verifiedSet     bool
	verifiedVersion uint64
	verifiedErr     error
}

// RunStats reports executor activity for one run.
type RunStats struct {
	NodesExecuted int
	NodesInRun    int
}

// RunMetadata is the per-run result metadata returned by RunCtx and
// Callable.CallCtx, private to the call that returned it.
type RunMetadata struct {
	Stats RunStats
	// StepTrace holds the step's per-node execution spans when
	// RunOptions.Trace was set (nil otherwise). Render it with
	// trace.Tracer.ChromeTrace or ASCII.
	StepTrace *trace.Tracer
}

// RunOptions names the inputs of one RunCtx call.
type RunOptions struct {
	Feeds   map[string]*tensor.Tensor
	Fetches []graph.Output
	Targets []*graph.Node
	// Trace records one span per node execution into RunMetadata.StepTrace.
	// Off by default: the untraced step path stays zero-overhead.
	Trace bool
}

// NewSession creates a session over the builder's graph.
func NewSession(b *Builder) *Session {
	return &Session{B: b, SessRes: ops.NewResources(), baseSeed: 42,
		plans: map[string]*exec.Plan{}}
}

// stepRNG derives a fresh deterministic RNG stream for one run: the n-th
// run of a session always sees the same stream, and no two runs share a
// generator (splitmix-style increment keeps streams well separated).
func (s *Session) stepRNG() *tensor.RNG {
	n := s.runSeq.Add(1)
	return tensor.NewRNG(s.baseSeed + n*0x9E3779B97F4A7C15)
}

// InitVariables runs all variable initializer ops recorded by the builder.
func (s *Session) InitVariables() error {
	if len(s.B.InitOps) == 0 {
		return nil
	}
	var targets []*graph.Node
	targets = append(targets, s.B.InitOps...)
	_, err := s.Run(nil, nil, targets)
	return err
}

// Run executes the subgraph needed for fetches and targets with the given
// feeds, returning the fetched tensors in order: RunCtx under the
// background context, without the metadata.
func (s *Session) Run(feeds map[string]*tensor.Tensor, fetches []graph.Output, targets []*graph.Node) ([]*tensor.Tensor, error) {
	vals, _, err := s.RunCtx(context.Background(), RunOptions{Feeds: feeds, Fetches: fetches, Targets: targets})
	return vals, err
}

// RunCtx executes one step under a context: cancellation or deadline expiry
// stops the executor promptly (no new kernels launch, in-flight work
// drains) and returns an error wrapping ctx.Err(). The returned
// RunMetadata is private to this call, so RunCtx is safe to invoke from
// many goroutines against one Session.
func (s *Session) RunCtx(ctx context.Context, opts RunOptions) ([]*tensor.Tensor, RunMetadata, error) {
	var md RunMetadata
	if err := s.B.Err(); err != nil {
		return nil, md, fmt.Errorf("core: graph has a construction error: %w", err)
	}
	for name, t := range opts.Feeds {
		n, err := s.placeholder(name)
		if err != nil {
			return nil, md, err
		}
		if err := ValidateFeed(n, t); err != nil {
			return nil, md, err
		}
	}
	plan, err := s.planFor(opts.Fetches, opts.Targets)
	if err != nil {
		return nil, md, err
	}
	return s.runPlan(ctx, plan, exec.MapFeeder(opts.Feeds), opts.Trace)
}

// placeholder returns the node a feed names: a Placeholder, or an error.
// Run and MakeCallable share the rule; a placeholder outside the pruned
// subgraph is legal and its feed is ignored.
func (s *Session) placeholder(name string) (*graph.Node, error) {
	n := s.B.G.ByName(name)
	if n == nil || n.Op() != "Placeholder" {
		return nil, fmt.Errorf("core: feed %q is not a placeholder", name)
	}
	return n, nil
}

// runPlan is the shared executor-driving tail of RunCtx and
// Callable.CallCtx: run one step of a compiled plan and convert the fetched
// values.
func (s *Session) runPlan(ctx context.Context, plan *exec.Plan, feeder exec.Feeder, traced bool) ([]*tensor.Tensor, RunMetadata, error) {
	var md RunMetadata
	if traced {
		md.StepTrace = trace.New()
	}
	vals, executed, err := plan.Run(exec.Binding{
		Ctx:        ctx,
		Feeder:     feeder,
		SessionRes: s.SessRes,
		RNG:        s.stepRNG(),
		Trace:      md.StepTrace,
	})
	md.Stats = RunStats{NodesExecuted: executed, NodesInRun: len(plan.Nodes())}
	if err != nil {
		return nil, md, err
	}
	out := make([]*tensor.Tensor, len(vals))
	for i, v := range vals {
		t, err := v.Tensor()
		if err != nil {
			return nil, md, fmt.Errorf("core: fetch %d: %w", i, err)
		}
		out[i] = t
	}
	return out, md, nil
}

// verifyGraph runs the static dataflow verifier (internal/verify) over the
// whole graph, once per graph version: a cached verdict is returned until
// the next mutation. Callers hit it only when compiling a plan, so the
// steady-state step path never pays for verification.
func (s *Session) verifyGraph() error {
	v := s.B.G.Version()
	s.mu.RLock()
	done := s.verifiedSet && s.verifiedVersion == v
	err := s.verifiedErr
	s.mu.RUnlock()
	if done {
		return err
	}
	err = verify.Check(s.B.G, verify.Options{Complete: true}).Err()
	if err != nil {
		err = fmt.Errorf("core: graph failed verification: %w", err)
	}
	s.mu.Lock()
	s.verifiedSet, s.verifiedVersion, s.verifiedErr = true, v, err
	s.mu.Unlock()
	return err
}

// planFor returns (building and caching on first use) the executor plan
// for a run signature. The fast path takes only a read lock, so concurrent
// steady-state runs do not serialize on the cache.
func (s *Session) planFor(fetches []graph.Output, targets []*graph.Node) (*exec.Plan, error) {
	// Keyed by node identity, not id: a node of another graph with an id
	// of this one must miss the cache and reach Prune, which rejects it.
	var sig strings.Builder
	for _, f := range fetches {
		fmt.Fprintf(&sig, "f:%p:%d;", f.Node, f.Index)
	}
	for _, t := range targets {
		fmt.Fprintf(&sig, "t:%p;", t)
	}
	// Include the graph version: any mutation — growth (e.g. a later
	// Gradients call) or an in-place rewrite (Optimize's CSE/folding) —
	// invalidates prior prunes.
	v := s.B.G.Version()
	fmt.Fprintf(&sig, "v:%d", v)
	key := sig.String()

	s.mu.RLock()
	p, ok := s.plans[key]
	s.mu.RUnlock()
	if ok {
		return p, nil
	}

	// First compile at this signature (or graph version): verify before
	// planning, so structural bugs surface as diagnostics here rather
	// than executor hangs at step time.
	if err := s.verifyGraph(); err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Every cached key embeds the graph version, so a version change
	// strands the whole previous generation: clear it instead of letting
	// a long-lived session that interleaves mutation with runs accrete
	// dead plans.
	if s.plans == nil || s.plansVersion != v {
		s.plans = map[string]*exec.Plan{}
		s.plansVersion = v
	}
	if p, ok := s.plans[key]; ok {
		return p, nil
	}
	p, err := s.compile(fetches, targets)
	if err != nil {
		return nil, err
	}
	s.plans[key] = p
	return p, nil
}

// compile prunes the graph to a run signature and builds its plan, fixing
// the session's executor options in it.
func (s *Session) compile(fetches []graph.Output, targets []*graph.Node) (*exec.Plan, error) {
	nodes, err := Prune(s.B.G, fetches, targets)
	if err != nil {
		return nil, err
	}
	return exec.NewPlan(s.B.G, exec.PlanOptions{
		Nodes:   nodes,
		Fetches: fetches,
		Mem:     s.Mem,
		Runner:  s.Runner,
	})
}

// CallableSpec fixes one run signature for MakeCallable: feeds are named
// placeholders bound positionally at call time; fetches and targets are
// the outputs and ops of every call.
type CallableSpec struct {
	Feeds   []string
	Fetches []graph.Output
	Targets []*graph.Node
}

// Callable is a pre-compiled run signature: the pruned subgraph and
// executor plan are built once at MakeCallable, so the steady-state call
// path performs no pruning, no signature hashing, and no feed-map
// construction — the per-signature executor of the paper's server runtime.
// A Callable is immutable and safe for concurrent Call from many
// goroutines.
type Callable struct {
	s         *Session
	plan      *exec.Plan
	feedNames []string
	// feedNodes are the placeholder nodes behind feedNames, captured at
	// compile time so each Call validates args (dtype/shape, when the
	// placeholder declares them) without graph lookups.
	feedNodes []*graph.Node
	// version is the graph version the plan was compiled against; Call
	// fails fast if the graph has mutated since, rather than silently
	// serving a stale plan.
	version uint64
}

// MakeCallable compiles the run signature once and returns the handle.
// Create callables after graph construction is complete: a Call made after
// any later graph mutation fails fast (the compiled plan would be stale).
func (s *Session) MakeCallable(spec CallableSpec) (*Callable, error) {
	if err := s.B.Err(); err != nil {
		return nil, fmt.Errorf("core: graph has a construction error: %w", err)
	}
	if err := s.verifyGraph(); err != nil {
		return nil, err
	}
	// A name that appears twice would silently drop all but the first
	// bound arg: a spec bug worth failing fast on.
	seen := make(map[string]bool, len(spec.Feeds))
	feedNodes := make([]*graph.Node, len(spec.Feeds))
	for i, name := range spec.Feeds {
		n, err := s.placeholder(name)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("core: callable feed %q appears twice", name)
		}
		seen[name] = true
		feedNodes[i] = n
	}
	plan, err := s.compile(spec.Fetches, spec.Targets)
	if err != nil {
		return nil, err
	}
	return &Callable{
		s:         s,
		plan:      plan,
		feedNames: append([]string(nil), spec.Feeds...),
		feedNodes: feedNodes,
		version:   s.B.G.Version(),
	}, nil
}

// positionalFeeder binds call arguments to the callable's feed names by
// position; the linear scan over a handful of names beats building and
// hashing a map per call.
type positionalFeeder struct {
	names []string
	vals  []*tensor.Tensor
}

func (f *positionalFeeder) Feed(name string) (*tensor.Tensor, bool) {
	for i, n := range f.names {
		if n == name {
			return f.vals[i], f.vals[i] != nil
		}
	}
	return nil, false
}

// ValidateArgs checks one call's args against the compiled feed signature
// — non-nil, and matching any dtype/shape the placeholders declare (see
// Builder.PlaceholderTyped) — without running anything. Errors name the
// offending placeholder. The batching layer uses it for enqueue-time
// rejection, so a malformed request never joins (and poisons) a batch.
func (c *Callable) ValidateArgs(args []*tensor.Tensor) error {
	if len(args) != len(c.feedNames) {
		return fmt.Errorf("core: callable takes %d feeds (%v), got %d args",
			len(c.feedNames), c.feedNames, len(args))
	}
	for i, t := range args {
		if t == nil {
			return fmt.Errorf("core: callable arg %d (placeholder %q) is nil", i, c.feedNames[i])
		}
		if err := ValidateFeed(c.feedNodes[i], t); err != nil {
			return err
		}
	}
	return nil
}

// CallCtx executes the compiled signature with args bound positionally to
// the spec's feed names, returning fetched tensors in fetch order.
func (c *Callable) CallCtx(ctx context.Context, args ...*tensor.Tensor) ([]*tensor.Tensor, RunMetadata, error) {
	if err := c.ValidateArgs(args); err != nil {
		return nil, RunMetadata{}, err
	}
	if v := c.s.B.G.Version(); v != c.version {
		return nil, RunMetadata{}, fmt.Errorf("core: callable is stale: graph mutated since MakeCallable (version %d, now %d)",
			c.version, v)
	}
	return c.s.runPlan(ctx, c.plan, &positionalFeeder{names: c.feedNames, vals: args}, false)
}

// Prune returns the nodes transitively required by fetches and targets
// (following data and control edges backward), in graph insertion order.
// Like TensorFlow's session pruning, unreachable nodes — stateful or not —
// are dropped from the step. A fetch or target that is not a node of g, or
// a fetch of an output its node does not have, is an error: every run
// signature — a Session run, a Callable, a cluster — is checked here.
func Prune(g *graph.Graph, fetches []graph.Output, targets []*graph.Node) ([]*graph.Node, error) {
	for i, f := range fetches {
		if f.Node == nil || f.Node.Graph() != g {
			return nil, fmt.Errorf("core: fetch %d is not a node of this graph", i)
		}
		if !f.Valid() {
			return nil, fmt.Errorf("core: fetch %d names output %d of %s, which has %d", i, f.Index, f.Node.Name(), f.Node.NumOutputs())
		}
	}
	for i, t := range targets {
		if t == nil || t.Graph() != g {
			return nil, fmt.Errorf("core: target %d is not a node of this graph", i)
		}
	}
	needed := map[int]bool{}
	var stack []*graph.Node
	push := func(n *graph.Node) {
		if n != nil && !needed[n.ID()] {
			needed[n.ID()] = true
			stack = append(stack, n)
		}
	}
	for _, f := range fetches {
		push(f.Node)
	}
	for _, t := range targets {
		push(t)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range n.InputsRef() {
			push(in.Node)
		}
		for _, c := range n.ControlInputsRef() {
			push(c)
		}
	}
	var out []*graph.Node
	for _, n := range g.Nodes() {
		if needed[n.ID()] {
			out = append(out, n)
		}
	}
	return out, nil
}
