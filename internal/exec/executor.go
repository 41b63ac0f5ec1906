package exec

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Executor-level metrics on the process registry: step, kernel and loop
// iteration volume, and where node executions ran — on the dispatcher
// (inline), on a goroutine of their own because they may block (spawn), or on
// a goroutine of their own because they cost more than the hand-off
// (handoff). Per-step tallies accumulate in plain executor fields and flush
// once when the step returns, so the per-node hot path pays no atomics for
// them.
var (
	metricSteps   = metrics.Default().Counter("exec_steps_total")
	metricKernels = metrics.Default().Counter("exec_kernels_total")
	metricIters   = metrics.Default().Counter("exec_iterations_total")
	metricInline  = metrics.Default().Counter("exec_dispatch_inline_total")
	metricSpawn   = metrics.Default().Counter("exec_dispatch_spawn_total")
	metricHandoff = metrics.Default().Counter("exec_dispatch_handoff_total")
)

// DefaultParallelIterations bounds how many iterations of one loop may be
// in flight concurrently when none of the loop's Enter ops declares
// parallel_iterations. The paper reports 32 as a generally good limit.
// verify's memory bound reads the same constant.
const DefaultParallelIterations = 32

// maxEventsBuffer caps the completion-channel buffer. The buffer is sized
// from the plan (nodes x parallel window) so tiny graphs do not over-allocate
// and huge partitions do not stall kernel goroutines on a full channel.
const maxEventsBuffer = 1 << 16

// PlanOptions is what every step of a plan has in common besides the graph.
// NewPlan reads each field once and resolves it into the plan; nothing here
// can be bound again per step.
type PlanOptions struct {
	// Nodes is the subset to execute (a device partition); nil means all
	// nodes in the graph.
	Nodes []*graph.Node
	// Fetches are the outputs whose root-frame values a step returns.
	Fetches []graph.Output
	// Mem returns the memory system for a device name (may return nil).
	// Called once per plan node, by NewPlan.
	Mem func(device string) ops.DeviceMem
	// Runner returns the kernel runner for a device name; a node whose device
	// has none (nil) runs on the calling goroutine. Called once per plan node,
	// by NewPlan.
	Runner func(device string) Runner
	// TraceStream prefixes the span stream names of the plan's steps (tid in
	// the Chrome trace), typically the partition's device; "" means "cpu".
	TraceStream string
}

// Binding is what one step binds to a plan: Plan.Run reads each field once.
type Binding struct {
	// Ctx carries step cancellation. When it is canceled the dispatcher
	// stops launching work, fails pending rendezvous operations, drains
	// in-flight kernels, and Run returns an error wrapping ctx.Err().
	// Nil means the step cannot be canceled.
	Ctx context.Context
	// Feeder resolves placeholder feeds by node name (see MapFeeder); nil
	// feeds nothing.
	Feeder Feeder
	// StepRes is the per-step resource container (stacks, TensorArrays);
	// if nil a fresh one is created.
	StepRes *ops.Resources
	// SessionRes is the session container (variables); if nil a fresh
	// one is created.
	SessionRes *ops.Resources
	// RNG seeds random ops; if nil a default-seeded one is created.
	RNG *tensor.RNG
	// Rendezvous connects Send/Recv ops; required only if the partition
	// contains them.
	Rendezvous Rendezvous
	// Trace, if set, receives one span per node execution (node, op,
	// frame/iteration, queue-wait vs run time, the stream it ran on,
	// Send/Recv flow ids). Off (nil) by default; the tracing-off path is
	// zero-alloc and guarded by the alloc-budget test in dcf.
	Trace *trace.Tracer
}

// opKind discriminates the ops whose semantics the executor implements
// itself; every other op is kOther and runs through its registered kernel.
// StackPush and StackPop run through theirs too: the executor only follows
// the reference a push moves into the stack to the pop that takes it out.
type opKind uint8

const (
	kOther opKind = iota
	kMerge
	kSwitch
	kEnter
	kExit
	kNextIteration
	kSend
	kRecv
	kStackPush
	kStackPop
)

func kindOf(op string) opKind {
	switch op {
	case "Merge":
		return kMerge
	case "Switch":
		return kSwitch
	case "Enter":
		return kEnter
	case "Exit":
		return kExit
	case "NextIteration":
		return kNextIteration
	case "Send":
		return kSend
	case "Recv":
		return kRecv
	case "StackPush":
		return kStackPush
	case "StackPop":
		return kStackPop
	}
	return kOther
}

// consumerEdge is one data edge, in dense plan coordinates.
type consumerEdge struct {
	idx   int32 // plan index of the consuming node
	input int32 // input slot at the consumer
}

// nodeInfo is the immutable per-node metadata the hot path reads instead of
// hashing maps: op kind, arities, consumer edge lists, fetch slots, frame
// attributes, and the static rendezvous key, all precomputed at plan build.
type nodeInfo struct {
	node   *graph.Node
	kind   opKind
	inline bool // control primitive: runs on the dispatcher
	pass   bool // kernel is a pure pass-through (Identity, LoopCond, ...)
	fresh  bool // kernel returns exclusively-owned outputs (OpDef.Fresh)
	// recycle marks the nodes that give their references to input buffers
	// back when they complete: fresh kernels, the control primitives and the
	// two stack ops, which retain nothing but the value a push saves. Every
	// other node is a holder: what it was handed may be aliased or kept (a
	// variable, a TensorArray, a published Send), so the buffer is the
	// collector's.
	recycle bool
	// route marks a routing node: one data input, no control inputs, and an
	// execution that only forwards that token (Enter, Exit, NextIteration,
	// and a pass-through with no device runner and no device memory). It
	// runs where its token is delivered instead of being scheduled.
	route bool

	numIn  int32
	numCtl int32
	numOut int32
	inOff  int32 // offset of this node's input span in the iteration arena

	consumers    [][]consumerEdge // per output port
	ctlConsumers []int32
	fetchSlot    []int32 // per port, -1 if unfetched; nil when no port is fetched

	frameID      int32 // Enter: dense id of the target frame; else -1
	isConstEnter bool
	sendKey      string // Send/Recv: static rendezvous key

	def *ops.OpDef // nil for ops unknown at plan time (errors at run time)
}

// fetched reports whether a step returns the value of the output port.
func (info *nodeInfo) fetched(port int) bool {
	return info.fetchSlot != nil && info.fetchSlot[port] >= 0
}

// frameMeta is the static description of one loop frame (by frame_name).
type frameMeta struct {
	name       string
	enterCount int
	// parallel is the frame's window: the largest parallel_iterations any of
	// its Enter ops declares, else DefaultParallelIterations.
	parallel int
}

// Plan holds the static, reusable part of an execution. Every partition
// node gets a dense index 0..N-1 at plan build; all per-node metadata lives
// in one flat []nodeInfo indexed by it, so propagation and scheduling never
// hash. Sessions cache plans per run signature (like TensorFlow's
// per-signature executor cache) so repeated Runs skip this construction.
// Everything but the kernel-cost estimates is immutable after NewPlan,
// the resolved device bindings included.
type Plan struct {
	nodes   []*graph.Node
	fetches []graph.Output

	infos    []nodeInfo
	planIdx  []int32 // graph node id -> plan index (-1 outside the partition)
	frames   []frameMeta
	sources  []int32
	arenaLen int32 // total data-input slots across all nodes

	// eventsCap sizes a step's completion channel from the plan's live-frame
	// bound, nodes x the widest frame window (acyclic plans execute each node
	// exactly once), so a window-1 loop is provisioned at one slot per node
	// and a huge partition stops at maxEventsBuffer. The same bound caps the
	// executions a step has off the dispatcher at once, and so its hand-off
	// goroutines.
	eventsCap int
	// runners/mems are the per-plan-index device bindings (nil slices when
	// the options have no provider).
	runners []Runner
	mems    []ops.DeviceMem
	// The span stream names of a traced step: the dispatcher's, and that of
	// the executions it hands to goroutines of their own.
	streamInline string
	streamSpawn  string

	// cost[i] is the measured kernel time of plan node i in ns — 0 until its
	// first execution, which is always timed — and untilSample counts the
	// kernel executions left before the next timed one. They are the plan's
	// only mutable state, atomics because concurrent executors share a plan,
	// and they live here rather than on the single-use executor so that a
	// six-kernel serving plan is re-sampled too: no one call of it ever
	// counts to sampleEvery.
	cost        []atomic.Int64
	untilSample atomic.Int64
}

// NewPlan validates and precomputes the static execution structures for a
// (nodes, fetches) signature, and resolves every other option into them.
func NewPlan(g *graph.Graph, opts PlanOptions) (*Plan, error) {
	if g == nil {
		return nil, fmt.Errorf("exec: nil graph")
	}
	nodes, fetches := opts.Nodes, opts.Fetches
	if nodes == nil {
		nodes = g.Nodes()
	}
	p := &Plan{nodes: nodes, fetches: fetches}
	p.planIdx = make([]int32, g.NumNodes())
	for i := range p.planIdx {
		p.planIdx[i] = -1
	}
	p.infos = make([]nodeInfo, len(nodes))
	p.cost = make([]atomic.Int64, len(nodes))
	p.untilSample.Store(sampleEvery)
	for i, n := range nodes {
		p.planIdx[n.ID()] = int32(i)
	}
	frameIDs := map[string]int32{}
	var arena int32
	for i, n := range nodes {
		info := &p.infos[i]
		op := n.Op()
		info.node = n
		info.kind = kindOf(op)
		info.inline = inlineOps[op]
		info.pass = passOps[op]
		info.numIn = int32(n.NumInputs())
		info.numCtl = int32(n.NumControlInputs())
		info.numOut = int32(n.NumOutputs())
		info.inOff = arena
		arena += info.numIn
		info.consumers = make([][]consumerEdge, info.numOut)
		info.frameID = -1
		if def, err := ops.Get(op); err == nil {
			info.def = def
			info.fresh = def.Fresh
		}
		info.recycle = info.fresh || info.pass || (info.kind >= kMerge && info.kind <= kNextIteration) ||
			info.kind == kStackPush || info.kind == kStackPop
		switch info.kind {
		case kEnter:
			name := n.AttrString("frame_name")
			id, ok := frameIDs[name]
			if !ok {
				id = int32(len(p.frames))
				frameIDs[name] = id
				p.frames = append(p.frames, frameMeta{name: name})
			}
			p.frames[id].enterCount++
			info.frameID = id
			info.isConstEnter = n.AttrBool("is_constant")
			p.frames[id].parallel = max(p.frames[id].parallel, n.AttrInt("parallel_iterations"))
		case kSend, kRecv:
			info.sendKey = n.AttrString(SendKeyAttr)
		}
		if info.numIn == 0 && info.numCtl == 0 {
			p.sources = append(p.sources, int32(i))
		}
	}
	p.arenaLen = arena
	for i, n := range nodes {
		for j, in := range n.InputsRef() {
			pi := p.planIdx[in.Node.ID()]
			if pi < 0 {
				return nil, fmt.Errorf("exec: node %s input %d (%s) is outside the partition", n.Name(), j, in)
			}
			p.infos[pi].consumers[in.Index] = append(p.infos[pi].consumers[in.Index],
				consumerEdge{idx: int32(i), input: int32(j)})
		}
		for _, c := range n.ControlInputsRef() {
			pi := p.planIdx[c.ID()]
			if pi < 0 {
				return nil, fmt.Errorf("exec: node %s control input %s is outside the partition", n.Name(), c.Name())
			}
			p.infos[pi].ctlConsumers = append(p.infos[pi].ctlConsumers, int32(i))
		}
	}
	for i, f := range fetches {
		if !f.Valid() {
			return nil, fmt.Errorf("exec: invalid fetch %v", f)
		}
		pi := p.planIdx[f.Node.ID()]
		if pi < 0 {
			return nil, fmt.Errorf("exec: fetch %s outside the partition", f)
		}
		info := &p.infos[pi]
		if info.fetchSlot == nil {
			info.fetchSlot = make([]int32, info.numOut)
			for j := range info.fetchSlot {
				info.fetchSlot[j] = -1
			}
		}
		info.fetchSlot[f.Index] = int32(i)
	}
	for i := range p.infos {
		// A StackPush whose value output is observed hands out an alias of
		// what it saved: it is an ordinary holder, not a move into the stack.
		if info := &p.infos[i]; info.kind == kStackPush && (info.numOut != 2 || len(info.consumers[0]) > 0 || info.fetched(0)) {
			info.kind, info.recycle = kOther, false
		}
	}

	window := 1
	for i := range p.frames {
		if p.frames[i].parallel <= 0 {
			p.frames[i].parallel = DefaultParallelIterations
		}
		window = max(window, p.frames[i].parallel)
	}
	p.eventsCap = min(max(len(nodes)*window, 1), maxEventsBuffer)
	if opts.Runner != nil {
		p.runners = make([]Runner, len(nodes))
		for i, n := range nodes {
			p.runners[i] = opts.Runner(n.Device())
		}
	}
	if opts.Mem != nil {
		p.mems = make([]ops.DeviceMem, len(nodes))
		for i, n := range nodes {
			p.mems[i] = opts.Mem(n.Device())
		}
	}
	for i := range p.infos {
		info := &p.infos[i]
		info.route = info.numIn == 1 && info.numCtl == 0 &&
			(info.kind == kEnter || info.kind == kExit || info.kind == kNextIteration ||
				info.pass && p.runner(int32(i)) == nil && (p.mems == nil || p.mems[i] == nil))
	}
	stream := opts.TraceStream
	if stream == "" {
		stream = "cpu"
	}
	p.streamInline, p.streamSpawn = stream+"/inline", stream+"/spawn"
	return p, nil
}

// Nodes returns the plan's node set.
func (p *Plan) Nodes() []*graph.Node { return p.nodes }

// Run executes one step of the plan to completion and returns the fetched
// values and how many node executions the step made (dead skips and routed
// nodes included). If the binding's context is canceled mid-step, no further
// kernels launch, pending rendezvous operations fail, in-flight kernels
// drain, and Run returns an error wrapping the context's error. Concurrent
// Runs of one plan are independent.
func (p *Plan) Run(b Binding) ([]ops.Value, int, error) {
	ex := p.newExecutor(b)
	vals, err := ex.run()
	return vals, ex.numKernels, err
}

// executor runs one step. It is single-use: construct, run, discard.
// All frame/iteration state is owned by the dispatcher goroutine (the one
// that calls run); kernels execute on their own goroutines and report back
// over a channel, so no locks guard the scheduling state.
type executor struct {
	plan *Plan

	// What the step bound: ctx is nil when the step cannot be canceled,
	// rendezvous when the partition has no Send/Recv, tracer when the step is
	// not traced; env is what kernels see of the binding.
	ctx        context.Context
	rendezvous Rendezvous
	tracer     *trace.Tracer
	env        stepEnv

	root *frameState

	// events carries completions: the goroutine of every execution off the
	// dispatcher sends one doneMsg. It is nil until the first execution
	// leaves the dispatcher (goOff), so a step that never hands off allocates
	// no channel; inFlight counts the executions currently off the
	// dispatcher.
	events   chan *doneMsg
	inFlight int
	quit     chan struct{}
	// done is the step's cancellation signal (nil when ctx is nil);
	// the dispatcher nils it after it fires so a closed channel is
	// observed exactly once.
	done <-chan struct{}

	// aborted mirrors firstErr != nil for the goroutines off the dispatcher
	// (which must not touch dispatcher-owned state): once set, a kernel not
	// yet started is skipped.
	aborted atomic.Bool

	outstanding int
	firstErr    error

	// The dispatcher's own work, in the order a turn takes it (see Run):
	// inlineQ holds control primitives and dead skips, cheapQ the kernels
	// estimated below handoffCost, kept the one dear kernel the dispatcher
	// runs itself rather than wait for (kept.it is nil when the slot is
	// free). Both queues are LIFO: the newest item's inputs are warm.
	inlineQ []workItem
	cheapQ  []workItem
	kept    workItem
	// untilSample is this step's copy of the plan's sample pacing, written
	// back when Run returns.
	untilSample int64
	// scratch backs every dispatcher-inline runNode: the output tokens it
	// returns stay valid until the dispatcher's next runNode, which is long
	// enough because propagate copies tokens by value (into iteration
	// arenas, constants, deferred, fetched) before the loop turns.
	scratch nodeScratch

	fetched []Token
	fetchOK []bool

	numKernels int
	// Per-step tallies, flushed to the process metrics registry when Run
	// returns (plain ints: no hot-path atomics).
	statIters   int // loop body passes: iterations past a frame's 0th retired by advanceFrontier
	statInline  int
	statSpawn   int
	statHandoff int

	// refs counts the references to the pool buffers this step delivered to
	// more than one consumer: a token whose ref is r is one of the refs[r]
	// references left (slot 0 is never used: a zero ref means "not counted").
	// A holder that takes a reference for good sets the pinned bit, and a
	// pinned buffer is never recycled. refFree lists the slots to reuse.
	refs    []int32
	refFree []int32
	// pushed holds the buffers whose reference a StackPush moved into a
	// stack, with the slot that counts them, until the StackPop that returns
	// the buffer takes the reference out again.
	pushed map[*tensor.Tensor]int32

	// iterFree recycles iteration state: a retired iteration's dense node
	// slice and input arena go back here and are reused (reset lazily via
	// generation counters) by the next iteration that starts.
	iterFree []*iterState
	iterGen  uint32
}

// doneMsg reports a node execution that ran off the dispatcher back to it,
// one allocation per execution. It carries up to two output tokens inline;
// wider nodes (Split, Unpack) spill to more.
type doneMsg struct {
	idx  int32
	n    int32 // output count
	fs   *frameState
	it   *iterState
	out  [2]Token // the outputs when n <= 2
	more []Token  // all n outputs when n > 2
	err  error
}

// setOuts copies a runNode result out of the producer's scratch.
func (m *doneMsg) setOuts(outs []Token) {
	m.n = int32(len(outs))
	if len(outs) > len(m.out) {
		m.more = append([]Token(nil), outs...)
		return
	}
	copy(m.out[:], outs)
}

func (m *doneMsg) outs() []Token {
	if m.more != nil {
		return m.more
	}
	return m.out[:m.n]
}

// nodeScratch is the storage one node execution borrows from its caller,
// so that running a node allocates nothing of its own. Every runNode caller
// supplies one: the dispatcher the executor's, the goroutine of an execution
// off the dispatcher a fresh one.
//
// Lifetimes: the tokens runNode returns alias outs and are valid until the
// same scratch's next runNode; kctx, kctx.In and the slice a kernel returns
// are valid for that kernel call only (runNode copies the values into outs
// and resets the context before it returns, so nothing pins a tensor).
type nodeScratch struct {
	outs []Token
	kctx ops.KernelContext
	// outBuf and inBuf are the first backing of outs and kctx.In, so nodes
	// with up to two outputs and four inputs never make the scratch grow.
	outBuf [2]Token
	inBuf  [4]ops.Value
}

// tokens returns the scratch output vector resized to n.
func (sc *nodeScratch) tokens(n int) []Token {
	if cap(sc.outs) < n {
		if n <= len(sc.outBuf) {
			sc.outs = sc.outBuf[:]
		} else {
			sc.outs = make([]Token, n)
		}
	}
	return sc.outs[:n]
}

// one returns tok as a single-output result.
func (sc *nodeScratch) one(tok Token) []Token {
	outs := sc.tokens(1)
	outs[0] = tok
	return outs
}

// dead returns an all-dead output vector of length n.
func (sc *nodeScratch) dead(n int32) []Token {
	outs := sc.tokens(int(n))
	for i := range outs {
		outs[i] = Token{Dead: true}
	}
	return outs
}

// childKey identifies a child frame instance: which loop (by dense frame
// id) entered from which parent iteration.
type childKey struct {
	frameID int32
	iter    int32
}

// frameState is a dynamically created execution context: one per (loop,
// enclosing iteration) instance (§4.1). The root frame has one iteration.
type frameState struct {
	name       string
	frameID    int32
	parent     *frameState
	parentIter int
	parallel   int
	tagPrefix  string

	// ring holds the live iterations: iteration i is at ring[i&(len-1)],
	// its length the window rounded up to a power of two. The
	// parallel-iterations window bounds deliveries to
	// [doneFrontier, doneFrontier+parallel), so the ring is exact.
	ring []*iterState

	// constants holds loop-invariant tokens (is_constant Enters),
	// re-delivered into every iteration when it starts.
	constants []constEntry
	// doneFrontier is the lowest iteration not yet retired.
	doneFrontier int
	maxActivated int
	// deferred holds NextIteration deliveries beyond the parallel window;
	// spare is the storage of the last bucket released, for the next one.
	deferred []deferredBucket
	spare    []deferredDelivery
	children map[childKey]*frameState
	// activity counts executions in flight in this frame plus active
	// child frames; used to retire iterations of the parent.
	activity int
	// entersDone counts Enter executions that have targeted this frame;
	// iteration 0 cannot retire until all of the frame's Enters ran.
	entersDone int
	// deadExits remembers, once each, the Exit nodes whose input was dead.
	// Dead exit tokens are not propagated eagerly (a later iteration may
	// produce the live exit); when the frame finishes, exits that never
	// fired live propagate a single dead token to the parent — mirroring
	// TensorFlow's dead_exits handling.
	deadExits []int32
	liveExits map[int32]bool
	finalized bool
}

type constEntry struct {
	idx int32
	tok Token
}

type deferredDelivery struct {
	from int32
	tok  Token
}

// deferredBucket collects the deferred deliveries for one target iteration.
// A frame rarely holds more than one pending target, so a small slice beats
// a map here.
type deferredBucket struct {
	iter  int
	items []deferredDelivery
}

// iterState holds one iteration's per-node input bookkeeping in dense plan
// coordinates: nodes[i] is the state of plan node i, and arena is one flat
// token buffer that all nodes' input spans share (node i's inputs live at
// arena[inOff:inOff+numIn]). Both are recycled across iterations; gen
// mismatches mark state from a previous occupant, reset lazily on first
// touch.
type iterState struct {
	iter int
	gen  uint32
	tag  string // memoized frame tag, built on first Send/Recv

	nodes []nodeState
	arena []Token

	outstanding    int // executions in flight for this iteration
	childrenActive int // child frames of this iteration with activity
}

type nodeState struct {
	gen         uint32
	arrivedData int32
	deadData    int32
	arrivedCtl  int32
	deadCtl     int32
	liveData    bool
	scheduled   bool
}

// tag returns the dynamic tag of (frame, iter), e.g. "/while:3/inner:0";
// it is what makes rendezvous keys unique per iteration (§3). The hot path
// uses the per-iteration memoized copy (iterTag) instead of rebuilding.
func (f *frameState) tag(iter int) string {
	return f.tagPrefix + "/" + f.name + ":" + strconv.Itoa(iter)
}

// newExecutor binds one step to the plan. This is the one place a binding's
// defaults are applied.
func (p *Plan) newExecutor(b Binding) *executor {
	ex := &executor{
		plan:        p,
		ctx:         b.Ctx,
		rendezvous:  b.Rendezvous,
		tracer:      b.Trace,
		quit:        make(chan struct{}),
		untilSample: p.untilSample.Load(),
		fetched:     make([]Token, len(p.fetches)),
		fetchOK:     make([]bool, len(p.fetches)),
		root:        newFrame("root", -1, nil, 0, 1),
	}
	// ex.done stays nil when the step is uncancellable: either no context
	// was supplied, or the context is Background/TODO (whose Done() is also
	// nil). A nil channel never fires in the scheduler's select, so the
	// uncancellable path costs nothing per event — it is a deliberate mode,
	// not a missing feature: cluster steps are cancelled via Abort on the
	// worker, which cancels the per-step context it derives itself.
	if b.Ctx != nil {
		ex.done = b.Ctx.Done()
	}
	ex.env = stepEnv{feeder: b.Feeder, step: b.StepRes, sess: b.SessionRes, rng: b.RNG}
	if ex.env.feeder == nil {
		ex.env.feeder = MapFeeder(nil)
	}
	if ex.env.step == nil {
		ex.env.step = ops.NewResources()
	}
	if ex.env.sess == nil {
		ex.env.sess = ops.NewResources()
	}
	if ex.env.rng == nil {
		ex.env.rng = tensor.NewRNG(1)
	}
	return ex
}

// goOff accounts for one execution leaving the dispatcher, creating the
// completion channel on the first. The write happens before the `go` that
// lets another goroutine read ex.events, and the dispatcher only blocks on
// the channel with something in flight, so it never selects on the nil one
// with nothing else to wake it.
func (ex *executor) goOff() {
	if ex.events == nil {
		ex.events = make(chan *doneMsg, ex.plan.eventsCap)
	}
	ex.inFlight++
}

func newFrame(name string, frameID int32, parent *frameState, parentIter, parallel int) *frameState {
	// children and liveExits stay nil until first use: most frames have
	// neither, and serving-shaped acyclic steps build one frame per call.
	f := &frameState{
		name:       name,
		frameID:    frameID,
		parent:     parent,
		parentIter: parentIter,
		parallel:   parallel,
		ring:       make([]*iterState, 1<<bits.Len(uint(parallel-1))),
	}
	if parent != nil {
		f.tagPrefix = parent.tag(parentIter)
	}
	return f
}

// stepEnv implements ops.Env.
type stepEnv struct {
	feeder Feeder
	step   *ops.Resources
	sess   *ops.Resources
	rng    *tensor.RNG
}

func (e *stepEnv) Feed(name string) (*tensor.Tensor, bool) { return e.feeder.Feed(name) }
func (e *stepEnv) StepRes() *ops.Resources                 { return e.step }
func (e *stepEnv) SessionRes() *ops.Resources              { return e.sess }
func (e *stepEnv) RNG() *tensor.RNG                        { return e.rng }

// run is the dispatcher loop of the step (see Plan.Run).
func (ex *executor) run() ([]ops.Value, error) {
	if ex.ctx != nil && ex.ctx.Err() != nil {
		return nil, fmt.Errorf("exec: step canceled: %w", context.Cause(ex.ctx))
	}
	defer func() {
		ex.plan.untilSample.Store(ex.untilSample)
		metricSteps.Inc()
		metricKernels.Add(int64(ex.numKernels))
		metricIters.Add(int64(ex.statIters))
		metricInline.Add(int64(ex.statInline))
		metricSpawn.Add(int64(ex.statSpawn))
		metricHandoff.Add(int64(ex.statHandoff))
	}()
	it := ex.iteration(ex.root, 0)
	if it == nil {
		return nil, ex.firstErr
	}
	for _, idx := range ex.plan.sources {
		ex.schedule(idx, &ex.plan.infos[idx], ex.root, it, ex.nstate(it, idx))
	}
	// The dispatcher is the only goroutine that advances control flow, so
	// whatever it runs itself delays every Send, Recv and loop-control token
	// that was ready. A turn therefore takes communication before compute:
	// control primitives and dead skips (pure token bookkeeping), then one
	// non-blocking look at the completion channel, and only then a kernel —
	// a cheap one first, the kept dear one last, since by then every hand-off
	// this turn could make is made and runs while the dispatcher computes.
	for ex.outstanding > 0 {
		ex.pollCancel()
		switch {
		case len(ex.inlineQ) > 0:
			ex.runHere(popItem(&ex.inlineQ), false)
		case ex.inFlight > 0 && ex.pollEvents():
		case len(ex.cheapQ) > 0:
			ex.runHere(popItem(&ex.cheapQ), true)
		case ex.kept.it != nil:
			item := ex.kept
			ex.kept = workItem{}
			ex.runHere(&item, true)
		default:
			// Everything outstanding is in flight, so events is non-nil.
			select {
			case msg := <-ex.events:
				ex.finish(msg)
			case <-ex.done:
				// done is nil unless a cancelable context was given, and
				// is nilled once it fires, so this arm triggers at most
				// once (a nil channel blocks forever).
				ex.cancelStep()
			}
		}
	}
	if ex.firstErr != nil {
		return nil, ex.firstErr
	}
	for i, f := range ex.plan.fetches {
		if !ex.fetchOK[i] {
			return nil, &FetchError{Output: f, Reason: "never produced (node unreachable from the executed subgraph)"}
		}
		if ex.fetched[i].Dead {
			return nil, &FetchError{Output: f, Reason: "value is dead (produced on an untaken conditional branch)"}
		}
	}
	out := make([]ops.Value, len(ex.fetched))
	for i, t := range ex.fetched {
		out[i] = t.Val
	}
	return out, nil
}

// popItem takes the newest item off a dispatcher queue. The vacated slot
// stays valid until the next push, which is how long runHere needs it.
func popItem(q *[]workItem) *workItem {
	k := len(*q) - 1
	item := &(*q)[k]
	*q = (*q)[:k]
	return item
}

// runHere executes one of the dispatcher's own items and retires it; only a
// kernel is granted its inputs first (a control primitive or a dead skip
// forwards or releases them as they are). After the step has failed (error
// or cancel) the queued execution is accounted for without running. item
// may point into a dispatcher queue: it is not read once complete, which can
// push onto that queue, has begun.
func (ex *executor) runHere(item *workItem, kernel bool) {
	idx, fs, it := item.idx, item.fs, item.it
	var outs []Token
	var err error
	if ex.firstErr == nil {
		if kernel {
			ex.grant(item)
		}
		outs, err = ex.runItem(&ex.scratch, item, ex.plan.streamInline)
	}
	ex.complete(idx, fs, it, outs, err)
}

// runItem runs one queued execution on the calling goroutine (the dispatcher,
// or the goroutine of an execution off it) with that caller's scratch, and
// traces it on that caller's stream. It reads the clock only for an execution
// picked as a cost sample or under a tracer.
func (ex *executor) runItem(sc *nodeScratch, item *workItem, stream string) ([]Token, error) {
	info := &ex.plan.infos[item.idx]
	end := info.inOff + info.numIn
	inputs := item.it.arena[info.inOff:end:end]
	var tag string
	if info.kind == kSend || info.kind == kRecv {
		tag = item.it.tag
	}
	if !item.timed && ex.tracer == nil {
		return ex.runNode(sc, item.idx, inputs, tag, item.deadCtl)
	}
	start := time.Now()
	outs, err := ex.runNode(sc, item.idx, inputs, tag, item.deadCtl)
	done := time.Now()
	if item.timed {
		ex.plan.observe(item.idx, done.Sub(start))
	}
	if ex.tracer != nil {
		ex.recordSpan(item.idx, item.fs, item.it, tag, stream, item.enq, start, done)
	}
	return outs, err
}

// pollEvents retires one completion if one is waiting on the channel.
func (ex *executor) pollEvents() bool {
	select {
	case msg := <-ex.events:
		ex.finish(msg)
		return true
	default:
		return false
	}
}

// finish retires one execution that ran off the dispatcher.
func (ex *executor) finish(msg *doneMsg) {
	ex.inFlight--
	ex.complete(msg.idx, msg.fs, msg.it, msg.outs(), msg.err)
}

// complete retires one finished node execution of iteration it (live: it
// cannot retire while the execution is outstanding): it fails the step on
// err, otherwise propagates outs (which may alias the producer's scratch —
// every token is copied by value on delivery), then settles the accounting.
func (ex *executor) complete(idx int32, fs *frameState, it *iterState, outs []Token, err error) {
	if err != nil {
		// fail also flips the aborted flag so the goroutines off the
		// dispatcher skip the kernels of the already-failed step.
		ex.fail(err)
	}
	if ex.firstErr == nil {
		// A failed step settles nothing: what it counted is the collector's.
		ex.settle(idx, it, outs)
		ex.propagate(idx, fs, it, outs)
	}
	// Retire the execution after propagation so counts never dip
	// to zero while successors are being scheduled — routing nodes run
	// inside propagate, so this is also what keeps every frame and
	// iteration a routed token passes through from retiring under it.
	// Frontier advance runs before the activity decrement so deferred
	// iterations are released before the frame can finalize.
	ex.outstanding--
	it.outstanding--
	if ex.firstErr == nil {
		ex.advanceFrontier(fs)
	}
	ex.frameActivityDown(fs)
}

// recordSpan emits one node-execution span to the step tracer: queued at
// enq, run from start to end. Callers guarantee ex.tracer != nil; everything
// here may allocate freely because the tracing-off path never reaches it.
func (ex *executor) recordSpan(idx int32, fs *frameState, it *iterState, tag, stream string, enq, start, end time.Time) {
	info := &ex.plan.infos[idx]
	ev := trace.Event{
		Stream: stream,
		Name:   info.node.Name(),
		Op:     info.node.Op(),
		Frame:  fs.tag(it.iter),
		Iter:   it.iter,
		Queue:  start.Sub(enq),
	}
	if tag != "" {
		// Both sides of a hop derive the same id from (static key, frame
		// tag), so merged traces link Send→Recv without coordination.
		ev.Flow = trace.FlowID(info.sendKey, tag)
		ev.IsSend = info.kind == kSend
	}
	ex.tracer.RecordSpan(ev, start, end)
}

// pollCancel notices cancellation without blocking; the dispatcher calls it
// every turn because it can stay in the inline queue for a long time (loop
// bookkeeping is all inline) without ever touching the events channel.
func (ex *executor) pollCancel() {
	if ex.done == nil {
		return
	}
	select {
	case <-ex.done:
		ex.cancelStep()
	default:
	}
}

// cancelStep fails the step with the context's cancellation cause. Closing
// quit (via fail) wakes rendezvous Recvs so blocked partitions drain.
func (ex *executor) cancelStep() {
	ex.fail(fmt.Errorf("exec: step canceled: %w", context.Cause(ex.ctx)))
	ex.done = nil
}

// lookupIter returns iteration i of the frame if it is live, else nil.
func lookupIter(f *frameState, i int) *iterState {
	it := f.ring[i&(len(f.ring)-1)]
	if it != nil && it.iter == i {
		return it
	}
	return nil
}

// newIterState takes an iteration shell from the free list (or allocates
// the first few) and stamps a fresh generation so all recycled per-node
// state reads as untouched.
func (ex *executor) newIterState(i int) *iterState {
	ex.iterGen++
	var it *iterState
	if k := len(ex.iterFree); k > 0 {
		it = ex.iterFree[k-1]
		ex.iterFree = ex.iterFree[:k-1]
	} else {
		it = &iterState{
			nodes: make([]nodeState, len(ex.plan.infos)),
			arena: make([]Token, ex.plan.arenaLen),
		}
	}
	it.iter = i
	it.gen = ex.iterGen
	it.tag = ""
	it.outstanding = 0
	it.childrenActive = 0
	return it
}

// iteration returns (creating if needed) an iteration; creation replays
// loop constants into it. A ring collision — a token targeting a retired
// or out-of-window iteration — fails the step and returns nil; callers
// must tolerate a nil iteration on the abort path.
func (ex *executor) iteration(f *frameState, i int) *iterState {
	slot := i & (len(f.ring) - 1)
	if it := f.ring[slot]; it != nil {
		if it.iter == i {
			return it
		}
		// The window invariant (deliveries only target iterations in
		// [doneFrontier, doneFrontier+parallel)) makes ring slots exact;
		// a collision is an executor bug, but it must fail this step with
		// a diagnosis, not kill the process (and every concurrent step).
		ex.fail(fmt.Errorf("exec: internal: iteration %d of frame %q collides with live iteration %d (window [%d,%d))",
			i, f.name, it.iter, f.doneFrontier, f.doneFrontier+f.parallel))
		return nil
	}
	it := ex.newIterState(i)
	f.ring[slot] = it
	if i > f.maxActivated {
		f.maxActivated = i
	}
	for _, ce := range f.constants {
		ex.deliverSingle(ce.idx, f, i, ce.tok)
	}
	return it
}

// iterTag returns the memoized dynamic tag of an iteration (built once per
// iteration instead of per delivery).
func (ex *executor) iterTag(fs *frameState, it *iterState) string {
	if it.tag == "" {
		it.tag = fs.tag(it.iter)
	}
	return it.tag
}

// childFrame returns (creating if needed) the child frame an Enter targets.
func (ex *executor) childFrame(f *frameState, info *nodeInfo, iter int) *frameState {
	key := childKey{frameID: info.frameID, iter: int32(iter)}
	if c, ok := f.children[key]; ok {
		return c
	}
	meta := &ex.plan.frames[info.frameID]
	c := newFrame(meta.name, info.frameID, f, iter, meta.parallel)
	if f.children == nil {
		f.children = map[childKey]*frameState{}
	}
	f.children[key] = c
	return c
}

// nstate returns node idx's state in the iteration, lazily resetting state
// left over from a previous occupant of the recycled slot. Only a Merge has
// its input span cleared: it is the one node that runs, and settles, with a
// slot this iteration may never write; every other node runs only after each
// of its slots has had its one delivery.
func (ex *executor) nstate(it *iterState, idx int32) *nodeState {
	ns := &it.nodes[idx]
	if ns.gen != it.gen {
		*ns = nodeState{gen: it.gen}
		if info := &ex.plan.infos[idx]; info.kind == kMerge {
			clear(it.arena[info.inOff : info.inOff+info.numIn])
		}
	}
	return ns
}

// frameActivityUp/Down maintain the frame activity counters; a frame with
// activity counts as an active child of its parent's iteration, blocking
// that iteration's retirement until inner loops drain.
func (ex *executor) frameActivityUp(fs *frameState) {
	fs.activity++
	if fs.activity == 1 && fs.parent != nil {
		// A parent iteration below the frontier has already retired; it
		// needs no child accounting (and must not be resurrected).
		if fs.parentIter >= fs.parent.doneFrontier {
			if pit := ex.iteration(fs.parent, fs.parentIter); pit != nil {
				pit.childrenActive++
			}
		}
		ex.frameActivityUp(fs.parent)
	}
}

func (ex *executor) frameActivityDown(fs *frameState) {
	fs.activity--
	if fs.activity != 0 || fs.parent == nil {
		return
	}
	// The frame has drained. If all of its Enters have executed, it is
	// finished for good: propagate dead tokens for exits that never
	// fired live (loops on untaken branches), exactly once.
	if ex.firstErr == nil && !fs.finalized && fs.entersDone >= ex.plan.frames[fs.frameID].enterCount {
		fs.finalized = true
		for _, idx := range fs.deadExits {
			if fs.liveExits[idx] {
				continue
			}
			ex.deliverSingle(idx, fs.parent, fs.parentIter, Token{Dead: true})
		}
	}
	if pit := lookupIter(fs.parent, fs.parentIter); pit != nil {
		pit.childrenActive--
	}
	if ex.firstErr == nil {
		ex.advanceFrontier(fs.parent)
	}
	ex.frameActivityDown(fs.parent)
}

// deliverData records a data token arrival in iteration it and schedules
// the consumer if ready. A routing node runs on the spot instead (route),
// provided its frame has an execution outstanding: a frame a routed Enter
// has just entered, with nothing scheduled in it yet, queues the node, so
// that the frame's drain — the frontier advance and the dead exits of its
// finalization — still follows an execution of its own.
func (ex *executor) deliverData(ce consumerEdge, fs *frameState, it *iterState, tok Token) {
	info := &ex.plan.infos[ce.idx]
	if info.route && fs.activity > 0 {
		ex.route(ce.idx, info, fs, it, tok)
		return
	}
	ns := ex.nstate(it, ce.idx)
	if ns.scheduled {
		// e.g. a Merge that already fired on its first live input: the
		// late arrival gives its reference up.
		ex.release(&tok)
		return
	}
	it.arena[info.inOff+ce.input] = tok
	ns.arrivedData++
	if tok.Dead {
		ns.deadData++
	} else {
		ns.liveData = true
	}
	ex.maybeSchedule(ce.idx, info, fs, it, ns)
}

// deliverControl records a control-edge arrival.
func (ex *executor) deliverControl(idx int32, fs *frameState, it *iterState, dead bool) {
	ns := ex.nstate(it, idx)
	if ns.scheduled {
		return
	}
	ns.arrivedCtl++
	if dead {
		ns.deadCtl++
	}
	ex.maybeSchedule(idx, &ex.plan.infos[idx], fs, it, ns)
}

// route executes a routing node (nodeInfo.route) where its token lands, on
// the dispatcher, inside the propagate of the execution that produced the
// token: a dead token is released and forwarded as Token{Dead: true}, as
// settle does for a dead skip, and a live one is forwarded reference and all.
// The node takes no nodeState, arena slot, queue entry or outstanding count.
// That is safe because the producer is still outstanding: no frame or
// iteration the routed token passes through can retire until that
// producer's complete, which then advances the frontiers and retires the
// activity as it would have for the routed node. It counts and traces as a
// node execution (with no queue wait), so a traced step routes too.
func (ex *executor) route(idx int32, info *nodeInfo, fs *frameState, it *iterState, tok Token) {
	if ex.firstErr != nil {
		return // a failed step drops the token, as it drops a queued one
	}
	ex.numKernels++
	ex.statInline++
	var start time.Time
	if ex.tracer != nil {
		start = time.Now()
	}
	if tok.Dead {
		ex.release(&tok)
		tok = Token{Dead: true}
	}
	if ex.tracer != nil {
		ex.recordSpan(idx, fs, it, "", ex.plan.streamInline, start, start, time.Now())
	}
	ex.forward(idx, info, fs, it, tok)
}

// maybeSchedule applies the readiness rules: Merge is ready on its first
// live data input (or all-dead); every other op waits for all inputs.
func (ex *executor) maybeSchedule(idx int32, info *nodeInfo, fs *frameState, it *iterState, ns *nodeState) {
	if ns.arrivedCtl < info.numCtl {
		return
	}
	if info.kind == kMerge {
		if !ns.liveData && ns.deadData < info.numIn {
			return
		}
	} else if ns.arrivedData < info.numIn {
		return
	}
	ex.schedule(idx, info, fs, it, ns)
}

// schedule queues a node execution with the dispatcher (control primitives,
// dead skips, kernels cheaper than a hand-off, one dear kernel when nothing
// else is in flight) or starts it on a goroutine of its own (ops that may
// block, every other kernel).
func (ex *executor) schedule(idx int32, info *nodeInfo, fs *frameState, it *iterState, ns *nodeState) {
	ns.scheduled = true
	ex.outstanding++
	it.outstanding++
	ex.frameActivityUp(fs)
	ex.numKernels++
	item := workItem{fs: fs, it: it, idx: idx, deadCtl: ns.deadCtl > 0}
	if info.kind == kSend || info.kind == kRecv {
		ex.iterTag(fs, it) // memoized on the iteration before its goroutine starts
	}
	// enq timestamps feed the spans' queue-wait attribution; taking them
	// only when tracing keeps the off path free of clock reads.
	if ex.tracer != nil {
		item.enq = time.Now()
	}
	// Dead executions skip their kernels entirely (Fig. 5's propagation
	// rule), so they stay with the dispatcher for every op except Send,
	// whose dead-signal publication may touch the network.
	dead := item.deadCtl || (ns.deadData > 0 && info.kind != kMerge)
	if info.inline || (dead && info.kind != kSend) {
		ex.statInline++
		ex.inlineQ = append(ex.inlineQ, item)
		return
	}
	// Ops that may block — Send and Recv (network), kernels on custom
	// device runners or device memory (simulated streams, swaps) — always
	// leave the dispatcher, which must stay free to move tokens.
	if info.kind == kSend || info.kind == kRecv || ex.plan.runner(idx) != nil || (ex.plan.mems != nil && ex.plan.mems[idx] != nil) {
		ex.statSpawn++
	} else {
		// An ordinary kernel goes where its measured cost says. The decision
		// reads one atomic and no clock. A first execution (no estimate yet)
		// is timed and stays here; after that about one execution in
		// sampleEvery is timed wherever it runs, the gap drawn afresh each
		// time so that a plan whose kernel count shares a factor with the
		// period still has every node re-sampled.
		cost := ex.plan.cost[idx].Load()
		item.timed = cost == 0
		if ex.untilSample--; ex.untilSample <= 0 {
			item.timed = true
			ex.untilSample = sampleEvery/2 + rand.Int64N(sampleEvery)
		}
		switch {
		case cost < int64(handoffCost):
			ex.statInline++
			ex.cheapQ = append(ex.cheapQ, item)
			return
		case ex.inFlight == 0 && ex.kept.it == nil:
			// Nothing is off the dispatcher, so it would hand this kernel off
			// and sleep until that very kernel came back: it runs it itself.
			// A serial chain of any size thus makes no hand-off and no
			// completion channel; a fork hands off all but one branch; a
			// partition with a Recv pending hands off everything, staying
			// free to answer it.
			ex.statInline++
			ex.kept = item
			return
		}
		ex.statHandoff++
	}
	ex.goOff()
	ex.grant(&item)
	go ex.runSpawned(item)
}

// runSpawned is the goroutine of one execution off the dispatcher. The item
// arrives by value so that schedule's copy never escapes to the heap. After
// the step has failed (error or cancel) the dispatcher only counts
// completions, so the kernel is skipped, as runHere skips it.
func (ex *executor) runSpawned(item workItem) {
	msg := &doneMsg{idx: item.idx, fs: item.fs, it: item.it}
	if !ex.aborted.Load() {
		var sc nodeScratch
		outs, err := ex.runItem(&sc, &item, ex.plan.streamSpawn)
		msg.setOuts(outs)
		msg.err = err
	}
	ex.events <- msg
}

// handoffCost is what handing a kernel to a goroutine of its own costs the
// step: starting the goroutine, waking an idle P to run it, the kernel's
// buffers crossing to that P and its completion coming back over the events
// channel. A kernel measured below it runs on the dispatcher.
//
// The sweep, on 2 vCPUs whose speed drifts by a quarter (three rounds per
// cell, so read ranges): the constant against BenchmarkRNNTrainStep -cpu 2
// (ms per step; kernels handed off per warmed step) and BenchmarkTwoChains
// -cpu 2 (us per call of 16 MatMuls; a kernel of n = 48 / 64 / 96 / 128 costs
// about 8 / 17 / 57 / 135 us; "d" both chains on the dispatcher, "h" handed
// off).
//
//	constant  rnn step     handed  n=48      n=64      n=96       n=128
//	   5 us   5.3-6.1 ms   128     154-185h  237-497h  648-1170h  1239-2484h
//	  10 us   5.5-6.1       55     122-141d  230-345h  650-997h   1240-1770h
//	  20 us   5.5-6.0       22     126-145d  264-297d  638-695h   1162-1351h
//	  50 us   5.3-5.7        0     126-128d  265-294d  679-882*   1243-1343h
//	 100 us   5.3-5.7        0     121-141d  273-293d  895-1016d  1122-1387h
//	 200 us   5.2-5.8        0     136-145d  291-312d  924-1025d  2121-2194d
//	(parent)  6.6-7.2      974
//
//	second session, rnn step only: 20 us 5.6-6.3 (22 handed), 30 us 5.5-6.0
//	(2), 40 us 5.4-5.8 (1), 50 us 5.3-5.7 (0)
//
// * at 50 us the estimate of the 57 us kernel sits on the constant and the
// chains flap between the two modes. With an idle worker for a partner and
// nothing else to do, handing off breaks even near 17 us (n=64), loses below
// it (n=48: 128 -> 170 us) and wins 1.4x at 57 us. In the training step, whose
// forks are kernels of 5 to 25 us between loop-control tokens, a constant of
// 20 us still hands off 22 kernels a step and costs 0.2 to 0.3 ms against 40
// or 50. 40 us is clear of the smallest kernel measured to gain (57 us) and
// of every fork kernel of that step (its dearest MatMul reads 23 us) on a
// host running half as fast again.
//
// The sweep handed off to a worker pool. A goroutine per hand-off reads the
// same where it matters, six alternating rounds of BenchmarkTwoChains -cpu 2
// (median us per call, pool -> goroutine): n=96 1005 -> 1042, n=128
// 2275 -> 2239, both inside the pool's own spread (940-1158, 2101-2306), so
// the break-even did not move and the constant stands.
const handoffCost = 40 * time.Microsecond

// sampleEvery is the mean number of kernel executions between two timed ones
// (the gap is uniform on [sampleEvery/2, 3*sampleEvery/2)): two clock reads
// per 64 kernels are under 1 ns per node.
const sampleEvery = 64

// observe folds one timed execution of node idx into its cost estimate: a
// running mean that falls fast and rises slowly. Timing noise is one-sided —
// a cold cache, a preemption or a collector assist only ever lengthens a
// kernel — so a lower sample is believed at once (half the gap; a first
// sample 100x too high is under the constant in seven more) while a higher
// one raises the estimate by at most an eighth, which a single outlier of
// any size cannot turn into a hand-off for a node below 8/9 of handoffCost.
// Concurrent executors may interleave the load and the store; a lost sample
// is harmless.
func (p *Plan) observe(idx int32, d time.Duration) {
	s := max(int64(d), 1) // 0 means "never timed"
	if old := p.cost[idx].Load(); old > s {
		s = old - (old-s)/2
	} else if old > 0 {
		s = old + min(s-old, old)/8
	}
	p.cost[idx].Store(s)
}

// inlineOps never block and carry no real computation: the dispatcher
// executes them directly.
var inlineOps = map[string]bool{
	"Switch": true, "Merge": true, "Enter": true, "Exit": true,
	"NextIteration": true, "LoopCond": true, "Identity": true, "NoOp": true,
}

// passOps have kernels that return input 0 unchanged; the executor
// short-circuits them (preserving buffer ownership) when no custom device
// runner is attached to the node.
var passOps = map[string]bool{
	"Identity": true, "LoopCond": true, "StopGradient": true,
}

// workItem is one ready node execution, queued with the dispatcher or handed
// to a goroutine. It is kept small — every node execution copies one into a
// queue — by naming the iteration rather than holding what can be read off
// it: the node's input span of the arena (frozen once scheduled, but for the
// dispatcher's grant before it lets go of the item; the iteration cannot be
// recycled while this execution is outstanding, so whoever runs it reads the
// span in place), the iteration number and, for Send and Recv, the frame
// tag.
type workItem struct {
	fs      *frameState
	it      *iterState
	idx     int32
	deadCtl bool
	timed   bool      // fold this execution's duration into the plan's cost estimate
	enq     time.Time // enqueue instant; zero unless the step is traced
}

// runner returns the custom device runner attached to plan node idx, or nil
// when the node runs plainly on the calling goroutine.
func (p *Plan) runner(idx int32) Runner {
	if p.runners == nil {
		return nil
	}
	return p.runners[idx]
}

// tensorInTokens reports whether t is aliased by any token in outs.
func tensorInTokens(t *tensor.Tensor, outs []Token) bool {
	for i := range outs {
		if outs[i].Val.T == t {
			return true
		}
	}
	return false
}

// runNode evaluates one node instance per the Figure 5 rules. The returned
// tokens alias sc and are valid until sc's next runNode. Kernel panics
// (malformed shapes, bad dtypes) surface as step errors rather than crashing
// the process.
func (ex *executor) runNode(sc *nodeScratch, idx int32, inputs []Token, tag string, deadCtl bool) (outs []Token, err error) {
	info := &ex.plan.infos[idx]
	defer func() {
		if r := recover(); r != nil {
			sc.kctx.Reset() // a panicking kernel skipped the reset after the call
			outs = nil
			err = fmt.Errorf("exec: %s (%s) panicked: %v", info.node.Name(), info.node.Op(), r)
		}
	}()
	return ex.runNodeInner(sc, idx, info, inputs, tag, deadCtl)
}

// The ownership rule. A pool buffer returns to the pool when its last
// reference is released, and the dispatcher, which knows every port's
// consumers from the plan, is the only one who counts: nothing below runs on
// any other goroutine, and whoever else runs a node at most copies a token it
// was handed, ref and all, into the node's output (a pass-through under a
// device runner) without looking at it. An Owned token is the only reference
// to its buffer; a token with a ref is one of refs[ref] references; any other
// token's buffer is the collector's.

// pinned marks a count one of whose references a holder took for good.
const pinned = 1 << 30

// count turns an owned token into n counted references to its buffer.
func (ex *executor) count(tok *Token, n int) {
	var r int32
	if k := len(ex.refFree); k > 0 {
		r, ex.refFree = ex.refFree[k-1], ex.refFree[:k-1]
	} else {
		if len(ex.refs) == 0 {
			ex.refs = append(ex.refs, 0)
		}
		r = int32(len(ex.refs))
		ex.refs = append(ex.refs, 0)
	}
	ex.refs[r] = int32(n)
	tok.Owned, tok.ref = false, r
}

// release gives up the reference tok is; the last one of a buffer no holder
// pinned recycles it.
func (ex *executor) release(tok *Token) {
	t, r := tok.Val.T, tok.ref
	switch {
	case t == nil:
	case tok.Owned:
		tensor.Recycle(t)
	case r != 0:
		ex.refs[r]--
		if ex.refs[r] == 0 {
			tensor.Recycle(t)
		}
		if ex.refs[r]&^pinned == 0 {
			ex.refFree = append(ex.refFree, r)
		}
	}
}

// hold makes the reference tok is a permanent one — its holder may alias or
// keep the buffer — so no later release recycles it.
func (ex *executor) hold(tok *Token) {
	if r := tok.ref; r != 0 {
		ex.refs[r] = (ex.refs[r] - 1) | pinned
		if ex.refs[r] == pinned {
			ex.refFree = append(ex.refFree, r)
		}
	}
	tok.Owned, tok.ref = false, 0
}

// grant makes Owned every input of an execution about to run that is the
// last reference to its buffer, exactly as if it had been the sole consumer:
// a fresh kernel may then forward into it. The dispatcher calls it as late as
// it still can — before running the node itself, before handing it off.
func (ex *executor) grant(item *workItem) {
	info := &ex.plan.infos[item.idx]
	span := item.it.arena[info.inOff : info.inOff+info.numIn]
	for i := range span {
		if r := span[i].ref; r != 0 && ex.refs[r] == 1 {
			ex.refFree = append(ex.refFree, r)
			span[i].Owned, span[i].ref = true, 0
		}
	}
}

// settle accounts for the input references of a finished execution, after
// its kernel has returned and before its outputs are delivered. A node of the
// recycle class, and any dead-skipped one, releases them, except where the
// buffer lives on in an output (forwarded in place by a kernel, handed on by
// a control primitive or a pass-through: the reference is that token's now);
// any other node is a holder. A StackPush moves the reference to the value it
// saves into the stack, and the StackPop that returns the buffer takes it
// out: its output is one counted reference again, for the pop's consumers.
func (ex *executor) settle(idx int32, it *iterState, outs []Token) {
	info := &ex.plan.infos[idx]
	ns := &it.nodes[idx]
	dead := ns.deadCtl > 0 || (ns.deadData > 0 && info.kind != kMerge) // as schedule decided
	inputs := it.arena[info.inOff : info.inOff+info.numIn]
	for i := range inputs {
		in := &inputs[i]
		switch {
		case in.Val.T == nil || !(in.Owned || in.ref != 0):
		case dead:
			ex.release(in)
		case info.kind == kStackPush && i == 1:
			ex.push(in)
		case !info.recycle:
			ex.hold(in)
		case !tensorInTokens(in.Val.T, outs):
			ex.release(in)
		}
	}
	if info.kind == kStackPop && !dead {
		if r, ok := ex.pushed[outs[0].Val.T]; ok {
			delete(ex.pushed, outs[0].Val.T)
			outs[0].ref = r
		}
	}
}

// push records that the stack now has the reference in is. A buffer already
// on a stack is held instead: one entry, one pop to find it.
func (ex *executor) push(in *Token) {
	if _, dup := ex.pushed[in.Val.T]; dup {
		ex.hold(in)
		return
	}
	if in.Owned {
		ex.count(in, 1)
	}
	if ex.pushed == nil {
		ex.pushed = map[*tensor.Tensor]int32{}
	}
	ex.pushed[in.Val.T] = in.ref
}

func (ex *executor) runNodeInner(sc *nodeScratch, idx int32, info *nodeInfo, inputs []Token, tag string, deadCtl bool) ([]Token, error) {
	anyDeadData := false
	allDeadData := len(inputs) > 0
	for i := range inputs {
		if inputs[i].Dead {
			anyDeadData = true
		} else {
			allDeadData = false
		}
	}
	n := info.node

	switch info.kind {
	case kMerge:
		if allDeadData {
			return sc.dead(info.numOut), nil
		}
		for i := range inputs {
			if t := &inputs[i]; !t.Dead && (t.Val.T != nil || t.Val.R != nil) {
				return sc.one(*t), nil
			}
		}
		return nil, fmt.Errorf("exec: Merge %s fired without a live input", n.Name())

	case kSwitch:
		if anyDeadData || deadCtl {
			return sc.dead(info.numOut), nil
		}
		p, err := inputs[1].Val.Tensor()
		if err != nil {
			return nil, fmt.Errorf("exec: Switch %s predicate: %w", n.Name(), err)
		}
		if p.DType() != tensor.Bool || p.Size() != 1 {
			return nil, fmt.Errorf("exec: Switch %s predicate must be a scalar bool, got %s", n.Name(), p)
		}
		outs := sc.dead(2)
		if p.ScalarBoolValue() {
			outs[1] = inputs[0]
		} else {
			outs[0] = inputs[0]
		}
		return outs, nil

	case kEnter, kExit, kNextIteration:
		if deadCtl || anyDeadData {
			return sc.dead(info.numOut), nil
		}
		return sc.one(inputs[0]), nil

	case kSend:
		if deadCtl {
			return nil, nil // peer's control loop mirrors the suppression
		}
		if ex.rendezvous == nil {
			return nil, fmt.Errorf("exec: Send %s without a rendezvous", n.Name())
		}
		key := RendezvousKey(info.sendKey, tag)
		// An owned input keeps its flag: the sole reference moves into the
		// rendezvous, which hands it to the receiver or recycles it once
		// the bytes are on the wire. This executor never touches it again
		// (Send is a holder).
		tok := Token{Dead: anyDeadData}
		if !anyDeadData {
			tok = inputs[0]
			tok.ref = 0 // a count means nothing outside this executor: Send holds
		}
		if err := ex.rendezvous.Send(key, tok); err != nil {
			return nil, fmt.Errorf("exec: Send %s: %w", n.Name(), err)
		}
		return nil, nil

	case kRecv:
		if deadCtl {
			return sc.dead(info.numOut), nil
		}
		if ex.rendezvous == nil {
			return nil, fmt.Errorf("exec: Recv %s without a rendezvous", n.Name())
		}
		key := RendezvousKey(info.sendKey, tag)
		tok, err := ex.rendezvous.Recv(key, ex.quit)
		if err != nil {
			select {
			case <-ex.quit: // aborted elsewhere; stand down quietly
				return sc.dead(info.numOut), nil
			default:
			}
			return nil, fmt.Errorf("exec: Recv %s: %w", n.Name(), err)
		}
		// tok.Owned is the rendezvous's word that no reference survived on
		// the sending side (a wire-decoded buffer, or a moved local one).
		return sc.one(tok), nil
	}

	// Ordinary op: deadness propagation (last rule of Fig. 5).
	if anyDeadData || deadCtl {
		return sc.dead(info.numOut), nil
	}
	// Pure pass-throughs skip the kernel machinery (and keep buffer
	// ownership flowing) unless a device runner wants to observe them.
	runner := ex.plan.runner(idx)
	if info.pass && runner == nil {
		return sc.one(inputs[0]), nil
	}
	def := info.def
	if def == nil {
		_, err := ops.Get(n.Op())
		return nil, err
	}
	if def.Kernel == nil {
		return nil, fmt.Errorf("exec: op %s has no kernel", n.Op())
	}
	var fwd uint64
	for i := range inputs {
		if i >= 64 {
			break
		}
		if inputs[i].Owned && inputs[i].Val.T != nil {
			fwd |= 1 << uint(i)
		}
	}
	// The context is the scratch's, rebuilt for this call and reset before
	// returning: vals may alias it (ctx.One/Two), so the values are copied
	// into tokens first.
	kctx := &sc.kctx
	kctx.OpName, kctx.NodeName, kctx.Attrs = n.Op(), n.Name(), n.AttrsMap()
	if kctx.In == nil {
		kctx.In = sc.inBuf[:0]
	}
	for i := range inputs {
		kctx.In = append(kctx.In, inputs[i].Val)
	}
	kctx.FwdMask, kctx.Env = fwd, &ex.env
	if ex.plan.mems != nil {
		kctx.Mem = ex.plan.mems[idx]
	}
	var vals []ops.Value
	var kerr error
	if runner != nil {
		vals, kerr = runOn(runner, n, def.Kernel, kctx)
	} else {
		vals, kerr = def.Kernel(kctx)
	}
	if kerr != nil {
		kctx.Reset()
		return nil, fmt.Errorf("exec: %s (%s): %w", n.Name(), n.Op(), kerr)
	}
	if len(vals) != int(info.numOut) {
		kctx.Reset()
		return nil, fmt.Errorf("exec: %s (%s): kernel returned %d outputs, node declares %d", n.Name(), n.Op(), len(vals), info.numOut)
	}
	outs := sc.tokens(len(vals))
	for i, v := range vals {
		outs[i] = Token{Val: v, Owned: info.fresh && v.T != nil}
	}
	kctx.Reset()
	if info.pass && len(outs) == 1 && len(inputs) > 0 && outs[0].Val.T != nil &&
		outs[0].Val.T == inputs[0].Val.T {
		// A pass-through kernel that did run (device runner attached)
		// still hands its input's reference on.
		outs[0] = inputs[0]
	}
	return outs, nil
}

// runOn runs the kernel through a custom device runner. It is a function of
// its own so that the closure (and the two results it captures) is built
// only for nodes that have such a runner attached.
func runOn(r Runner, n *graph.Node, kernel ops.Kernel, kctx *ops.KernelContext) (vals []ops.Value, err error) {
	r.RunKernel(n.Name(), n.Op(), func() { vals, err = kernel(kctx) })
	return vals, err
}

// propagate delivers a finished node's outputs per the frame rules.
func (ex *executor) propagate(idx int32, fs *frameState, it *iterState, outs []Token) {
	info := &ex.plan.infos[idx]
	switch info.kind {
	case kEnter, kExit, kNextIteration:
		ex.forward(idx, info, fs, it, outs[0])
	default:
		ex.deliverOutputs(info, fs, it, outs)
	}
}

// forward delivers the one output token of a node in (fs, it) per the frame
// rules: Enter into the child frame's iteration 0 (or as a loop constant),
// Exit into the parent frame, NextIteration into the next iteration
// (deferred if beyond the parallel window), anything else within the same
// (frame, iteration).
func (ex *executor) forward(idx int32, info *nodeInfo, fs *frameState, it *iterState, tok Token) {
	switch info.kind {
	case kEnter:
		child := ex.childFrame(fs, info, it.iter)
		child.entersDone++
		if info.isConstEnter {
			// The constant is re-delivered into every iteration: the frame
			// holds it.
			ex.hold(&tok)
			child.constants = append(child.constants, constEntry{idx: idx, tok: tok})
			if child.doneFrontier == 0 && child.ring[0] == nil {
				ex.iteration(child, 0) // replays constants incl. this one
				return
			}
			for i := child.doneFrontier; i <= child.maxActivated; i++ {
				if cit := lookupIter(child, i); cit != nil {
					ex.deliverOne(info, child, cit, tok)
				}
			}
			return
		}
		ex.deliverSingle(idx, child, 0, tok)
	case kExit:
		if fs.parent == nil {
			ex.fail(fmt.Errorf("exec: Exit %s executed in the root frame", info.node.Name()))
			return
		}
		if tok.Dead {
			// Suppressed: a later iteration may exit live; if none
			// does, frame finalization delivers one dead token.
			if !slices.Contains(fs.deadExits, idx) {
				fs.deadExits = append(fs.deadExits, idx)
			}
			return
		}
		if fs.liveExits == nil {
			fs.liveExits = map[int32]bool{}
		}
		fs.liveExits[idx] = true
		ex.deliverSingle(idx, fs.parent, fs.parentIter, tok)
	case kNextIteration:
		if tok.Dead {
			return // deadness stops at the end of an iteration
		}
		next := it.iter + 1
		if next >= fs.doneFrontier+fs.parallel {
			fs.addDeferred(next, deferredDelivery{from: idx, tok: tok})
			return
		}
		ex.deliverSingle(idx, fs, next, tok)
	default:
		ex.deliverOne(info, fs, it, tok)
	}
}

// addDeferred parks a NextIteration delivery for an iteration beyond the
// window. A new bucket takes the storage of the last one released.
func (fs *frameState) addDeferred(iter int, d deferredDelivery) {
	for i := range fs.deferred {
		if fs.deferred[i].iter == iter {
			fs.deferred[i].items = append(fs.deferred[i].items, d)
			return
		}
	}
	fs.deferred = append(fs.deferred, deferredBucket{iter: iter, items: append(fs.spare, d)})
	fs.spare = nil
}

func (ex *executor) fail(err error) {
	if ex.firstErr == nil {
		ex.firstErr = err
		ex.aborted.Store(true)
		close(ex.quit)
	}
}

// deliverOutputs fans tokens out to data and control consumers within one
// (frame, iteration).
func (ex *executor) deliverOutputs(info *nodeInfo, fs *frameState, it *iterState, outs []Token) {
	dead := len(outs) > 0
	for i := range outs {
		if !outs[i].Dead {
			dead = false
			break
		}
	}
	for port := range outs {
		ex.deliverPort(info, port, fs, it, outs[port])
	}
	for _, c := range info.ctlConsumers {
		ex.deliverControl(c, fs, it, dead)
	}
}

// deliverOne is deliverOutputs for a single-output node, without the slice.
func (ex *executor) deliverOne(info *nodeInfo, fs *frameState, it *iterState, tok Token) {
	ex.deliverPort(info, 0, fs, it, tok)
	for _, c := range info.ctlConsumers {
		ex.deliverControl(c, fs, it, tok.Dead)
	}
}

// deliverSingle is deliverOne into iteration iter of fs, creating it if
// needed: the one delivery that looks its iteration up, because it crosses
// to another iteration or frame (an Enter, an Exit, a NextIteration, a
// loop constant's replay, a dead exit's finalization). A ring collision has
// failed the step, and the token is dropped.
func (ex *executor) deliverSingle(idx int32, fs *frameState, iter int, tok Token) {
	if it := ex.iteration(fs, iter); it != nil {
		ex.deliverOne(&ex.plan.infos[idx], fs, it, tok)
	}
}

// deliverPort delivers one output token to the port's consumers, which is
// where references are counted: the one reference that arrives becomes one
// per consumer. A sole consumer takes it as it is; more than one share a
// count (a new one for an owned buffer, the old one raised for a buffer
// already counted, so a value that goes round a loop stays counted); a port
// nobody consumes releases it at once; a fetch holds it.
func (ex *executor) deliverPort(info *nodeInfo, port int, fs *frameState, it *iterState, tok Token) {
	if info.fetched(port) {
		ex.hold(&tok)
		if fs == ex.root {
			// Fetches observe values as delivered into the root frame
			// (an Exit's output materializes in its parent frame).
			slot := info.fetchSlot[port]
			ex.fetched[slot] = tok
			ex.fetchOK[slot] = true
		}
	}
	var cs []consumerEdge
	if port < len(info.consumers) {
		cs = info.consumers[port]
	}
	switch n := len(cs); {
	case n == 1 || tok.Val.T == nil:
	case n == 0:
		ex.release(&tok)
	case tok.Owned:
		ex.count(&tok, n)
	case tok.ref != 0:
		ex.refs[tok.ref] += int32(n - 1)
	}
	for _, ce := range cs {
		ex.deliverData(ce, fs, it, tok)
	}
}

// advanceFrontier retires drained iterations in order and releases deferred
// NextIteration tokens as the parallel window slides forward. The root
// frame is never retired (it ends with the whole execution).
func (ex *executor) advanceFrontier(fs *frameState) {
	if fs.parent == nil {
		return
	}
	for {
		progress := false
		limit := fs.doneFrontier + fs.parallel
		for bi := 0; bi < len(fs.deferred); {
			if tgt := fs.deferred[bi].iter; tgt < limit {
				items := fs.deferred[bi].items
				last := len(fs.deferred) - 1
				fs.deferred[bi] = fs.deferred[last]
				fs.deferred[last] = deferredBucket{}
				fs.deferred = fs.deferred[:last]
				if it := ex.iteration(fs, tgt); it != nil {
					for _, d := range items {
						ex.deliverOne(&ex.plan.infos[d.from], fs, it, d.tok)
					}
				}
				clear(items)
				fs.spare = items[:0]
				progress = true
				continue // re-examine the swapped-in bucket at bi
			}
			bi++
		}
		if cur := lookupIter(fs, fs.doneFrontier); cur != nil &&
			cur.outstanding == 0 && cur.childrenActive == 0 && ex.retirable(fs, cur) {
			fs.ring[fs.doneFrontier&(len(fs.ring)-1)] = nil
			ex.iterFree = append(ex.iterFree, cur)
			fs.doneFrontier++
			if cur.iter > 0 {
				// Started by the previous iteration's NextIteration: one
				// completed pass through the loop body.
				ex.statIters++
			}
			progress = true
		}
		if !progress {
			return
		}
	}
}

// retirable guards iteration 0 against retiring before all of the frame's
// Enter nodes have delivered their tokens. Later iterations receive tokens
// only from the previous (already retired, hence fully drained) iteration,
// so a drained non-zero iteration is always safe to retire.
func (ex *executor) retirable(fs *frameState, it *iterState) bool {
	if it.iter == 0 && fs.frameID >= 0 && fs.entersDone < ex.plan.frames[fs.frameID].enterCount {
		return false
	}
	return true
}
