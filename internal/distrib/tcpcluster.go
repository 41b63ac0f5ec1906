// Package distrib is the driver side of the distributed runtime (§3, §4.4).
// Fleet.NewCluster is the one place a multi-device graph is placed, pruned,
// partitioned and verified; the partitions then run on worker daemons
// (internal/cluster.Worker, the cmd/dcfworker CLI), one executor per device,
// which make progress independently and meet only at Send/Recv. The driver
// (the Run caller) acts only at step start and at completion or failure, as
// in the paper — never per iteration.
//
// Dial connects to the daemons; Fleet.NewCluster registers each worker's
// partitions once (gob-encoded subgraph, plans compiled and cached at
// registration); TCPCluster.RunCtx executes steps whose rendezvous keys are
// scoped per step, and driver-side cancellation and worker failures fan out
// as abort control messages so every partition's blocked Recvs drain.
// TCPOptions.WorkerOf decides which daemon hosts a device: devices that
// share a worker exchange tokens through its in-process rendezvous tables
// and share step and session resources, devices on different workers
// exchange frames over TCP — so "in-process multi-device" is a fleet of one
// loopback worker hosting every device, not a second runner. See
// internal/cluster/README.md.
package distrib

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Fleet is a set of dialed worker daemons (cmd/dcfworker processes, or
// cluster.Workers started inside the calling process on loopback). One
// fleet can host any number of TCPClusters; workers are addressed by the
// names they self-report in the hello handshake. A worker whose control connection
// dies is redialed lazily on the next step that needs it — the restart
// path that makes "kill a worker, restart it, keep stepping" work.
type Fleet struct {
	mu      sync.Mutex
	workers map[string]*fleetWorker
	closed  bool
	nextGID uint64
}

// fleetWorker is one daemon's slot in the fleet. Redials happen under the
// slot's own mutex so a down worker's connect timeout never stalls fleet
// operations that touch only healthy workers.
type fleetWorker struct {
	addr string

	mu     sync.Mutex
	client *cluster.Client // never nil; replaced only by redial
	epoch  int             // bumped on every successful redial
}

// Dial connects to worker daemons at the given control addresses and
// performs the hello handshake with each.
func Dial(addrs ...string) (*Fleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distrib: Dial needs at least one worker address")
	}
	f := &Fleet{workers: map[string]*fleetWorker{}}
	for _, addr := range addrs {
		c, err := cluster.DialWorker(addr)
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, dup := f.workers[c.Name()]; dup {
			c.Close()
			f.Close()
			return nil, fmt.Errorf("distrib: two workers report the name %q", c.Name())
		}
		f.workers[c.Name()] = &fleetWorker{addr: addr, client: c, epoch: 1}
	}
	return f, nil
}

// Workers lists the fleet's worker names, sorted.
func (f *Fleet) Workers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.workers))
	for n := range f.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close tears down every control connection. A closed fleet stays closed:
// later steps fail fast instead of silently redialing connections nothing
// would ever clean up.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	workers := make([]*fleetWorker, 0, len(f.workers))
	for _, w := range f.workers {
		workers = append(workers, w)
	}
	f.mu.Unlock()
	for _, w := range workers {
		w.mu.Lock()
		w.client.Close()
		w.mu.Unlock()
	}
}

// client returns a live client for the worker, redialing a dead one (the
// daemon may have restarted at the same control address). The epoch
// increments on every redial so clusters know to re-register. Only the
// worker's own slot is locked across the dial, so a down worker's connect
// timeout never delays operations on its healthy peers.
func (f *Fleet) client(name string) (*cluster.Client, int, error) {
	f.mu.Lock()
	w, ok := f.workers[name]
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return nil, 0, fmt.Errorf("distrib: fleet closed")
	}
	if !ok {
		return nil, 0, fmt.Errorf("distrib: unknown worker %q", name)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.client.Alive() {
		if err := f.redial(w, name, cluster.HelloTimeout); err != nil {
			return nil, 0, err
		}
	}
	return w.client, w.epoch, nil
}

// redial replaces the slot's dead client with a fresh connection to the
// same address, dialed and handshaken within timeout, and bumps the epoch.
// The caller holds w.mu.
func (f *Fleet) redial(w *fleetWorker, name string, timeout time.Duration) error {
	w.client.Close()
	fresh, err := cluster.DialWorkerTimeout(w.addr, timeout)
	if err != nil {
		return fmt.Errorf("distrib: worker %q is down: %w", name, err)
	}
	if fresh.Name() != name {
		fresh.Close()
		return fmt.Errorf("distrib: worker at %s now reports name %q, want %q", w.addr, fresh.Name(), name)
	}
	// Re-check closed while holding the slot: a Close that ran between the
	// caller's check and the redial must not be undone by installing a
	// fresh client nothing would ever close. (A Close that starts after
	// this check blocks on w.mu and will close the fresh client itself.)
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		fresh.Close()
		return fmt.Errorf("distrib: fleet closed")
	}
	w.client = fresh
	w.epoch++
	return nil
}

// liveClient returns the worker's current client if it is alive, without
// redialing (used by teardown paths that must not block on a dead daemon).
func (f *Fleet) liveClient(name string) *cluster.Client {
	f.mu.Lock()
	w := f.workers[name]
	f.mu.Unlock()
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.client.Alive() {
		return w.client
	}
	return nil
}

// gid allocates a fleet-unique graph id.
func (f *Fleet) gid() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextGID++
	return f.nextGID
}

// TCPOptions configures a multi-process cluster.
type TCPOptions struct {
	// DefaultDevice places unplaced nodes.
	DefaultDevice string
	// WorkerOf maps devices to worker names; the default takes the device
	// prefix before '/' ("wA/cpu" -> "wA", "w1" -> "w1"). Every worker it
	// names must be in the fleet.
	WorkerOf partition.WorkerOf
	// CheckpointDir, when set, is where distributed checkpoints of this
	// cluster's session variables are written (see internal/checkpoint's
	// manifest layout). Required for Checkpoint/Resume.
	CheckpointDir string
	// CheckpointEvery, when > 0, checkpoints automatically after every
	// n-th step: RunCtx quiesces the cluster at that step boundary and
	// captures every worker's variable shard before returning. Requires
	// CheckpointDir.
	CheckpointEvery uint64
}

// DeviceWorker is the default TCPOptions.WorkerOf.
func DeviceWorker(dev string) string {
	if i := strings.IndexByte(dev, '/'); i >= 0 {
		return dev[:i]
	}
	return dev
}

// TCPCluster executes a partitioned graph across worker daemons. Like
// TensorFlow, a cluster is specialized to one run signature: the fetches and
// targets are fixed at construction (the graph is pruned to them before
// partitioning), each Run executes one step, and the fetches come back in
// caller order. The driver is a pure coordinator: it broadcasts the step,
// waits for completions, and fans a cancellation or first failure out to
// the other workers so their blocked Recvs drain (§3's failure model: the
// step dies, the cluster survives).
type TCPCluster struct {
	fleet   *Fleet
	gid     uint64
	opts    TCPOptions
	fetches []graph.Output
	workers []string // participating workers, registration order

	// regMu guards the registration state (regs, registeredEpoch) against
	// concurrent RunCtx callers racing a reconnect's re-registration.
	regMu           sync.Mutex
	regs            map[string]*cluster.RegisterGraph
	registeredEpoch map[string]int

	// fetchWorker/fetchSlot route each caller fetch to (worker, index in
	// that worker's StepResp.Vals).
	fetchWorker []string
	fetchSlot   []int

	mu          sync.Mutex
	step        uint64
	outstanding map[uint64]bool
	released    uint64 // all steps <= released completed cluster-wide
	closed      bool

	// ckptGate quiesces the cluster at step boundaries: every step holds
	// the read side for its whole duration, and Checkpoint/RestoreState
	// take the write side — so a checkpoint is a consistent cut with no
	// step in flight anywhere (the paper's §3 coarse-grained model).
	// sync.RWMutex's writer preference guarantees the checkpoint makes
	// progress under a continuous stream of steps.
	ckptGate sync.RWMutex
	// sig is the GraphSig over every session variable the graph declares;
	// hosted routes variable names to the worker whose partition owns them.
	sig    uint64
	hosted map[string][]string
}

// NewCluster prunes the builder's graph to the fetches/targets, partitions
// it across the fleet's workers, and registers each worker's partitions on
// its daemon (plans compile once, at registration).
func (f *Fleet) NewCluster(b *core.Builder, fetches []graph.Output, targets []*graph.Node, opts TCPOptions) (*TCPCluster, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	if opts.DefaultDevice == "" {
		opts.DefaultDevice = "cpu:0"
	}
	if opts.WorkerOf == nil {
		opts.WorkerOf = DeviceWorker
	}
	partition.Place(b.G, opts.DefaultDevice)
	nodes, err := core.Prune(b.G, fetches, targets)
	if err != nil {
		return nil, err
	}
	res, err := partition.Partition(b.G, nodes, opts.WorkerOf)
	if err != nil {
		return nil, err
	}
	if err := partition.Validate(res); err != nil {
		return nil, err
	}
	// Send/Recv key pairing and the cross-partition rendezvous-cycle check
	// need every partition in view, and only the driver has that: a worker
	// verifies its own slice at registration and cannot tell that a Recv's
	// Send is missing everywhere. Checked before any worker is contacted —
	// an unpaired Recv would otherwise block its step until the caller's
	// deadline.
	if ds := verify.CheckPartitions(b.G, res.Parts); len(ds) != 0 {
		return nil, fmt.Errorf("distrib: partitioned graph failed verification: %w", ds.Err())
	}
	byWorker, workerOrder := partition.ByWorker(res, opts.WorkerOf)

	c := &TCPCluster{
		fleet:           f,
		gid:             f.gid(),
		opts:            opts,
		fetches:         fetches,
		workers:         workerOrder,
		regs:            map[string]*cluster.RegisterGraph{},
		registeredEpoch: map[string]int{},
		fetchWorker:     make([]string, len(fetches)),
		fetchSlot:       make([]int, len(fetches)),
		outstanding:     map[uint64]bool{},
	}

	// Route each fetch to the worker (and response slot) that produces it.
	perDev := map[string][]cluster.WireOutput{}
	for i, fe := range fetches {
		if fe.Node == nil {
			return nil, fmt.Errorf("distrib: invalid fetch %d", i)
		}
		dev := fe.Node.Device()
		c.fetchWorker[i] = opts.WorkerOf(dev)
		perDev[dev] = append(perDev[dev], cluster.WireOutput{Node: fe.Node.Name(), Index: fe.Index})
	}
	// Per worker: concatenated parts in device order fix the slot layout.
	fetchBase := map[string]int{} // device -> base slot within its worker's Vals
	for _, w := range workerOrder {
		base := 0
		for _, dev := range byWorker[w] {
			fetchBase[dev] = base
			base += len(perDev[dev])
		}
	}
	devSeen := map[string]int{}
	for i, fe := range fetches {
		dev := fe.Node.Device()
		c.fetchSlot[i] = fetchBase[dev] + devSeen[dev]
		devSeen[dev]++
	}

	// Build one registration per worker: the closed union of its devices'
	// partitions plus the per-device node lists and fetches. The Peers map
	// is left nil here — registerAll fills it with fresh data-plane
	// addresses (and thereby verifies the fleet covers every partitioned
	// worker) on every (re)registration.
	for _, w := range workerOrder {
		var union []*graph.Node
		var parts []cluster.WirePartition
		for _, dev := range byWorker[w] {
			devNodes := res.Parts[dev]
			union = append(union, devNodes...)
			names := make([]string, len(devNodes))
			for i, n := range devNodes {
				names[i] = n.Name()
			}
			parts = append(parts, cluster.WirePartition{
				Device:  dev,
				Nodes:   names,
				Fetches: perDev[dev],
			})
		}
		wireNodes, err := cluster.EncodeNodes(union)
		if err != nil {
			return nil, fmt.Errorf("distrib: worker %q: %w", w, err)
		}
		c.regs[w] = &cluster.RegisterGraph{
			GraphID: c.gid,
			Nodes:   wireNodes,
			Parts:   parts,
			Peers:   nil, // filled by registerAll
		}
	}
	// Map each worker's session variables (nodes carrying a "var" attr in
	// its partition) for checkpoint sharding, and hash the full variable
	// set into the graph signature checkpoints are keyed by.
	c.hosted = map[string][]string{}
	var allVars []string
	for _, w := range workerOrder {
		if vs := cluster.HostedVars(c.regs[w].Nodes); len(vs) > 0 {
			c.hosted[w] = vs
			allVars = append(allVars, vs...)
		}
	}
	c.sig = checkpoint.GraphSig(allVars)
	if err := c.registerAll(); err != nil {
		return nil, err
	}
	return c, nil
}

// registerAll (re)installs the graph on every participating worker with
// fresh peer addresses, recording the epoch each registration landed on.
// Callers hold c.regMu (NewCluster is pre-publication and exempt).
func (c *TCPCluster) registerAll() error {
	// Refresh the peer map first: a restarted worker has a new data addr.
	peers := map[string]string{}
	for _, w := range c.workers {
		cl, _, err := c.fleet.client(w)
		if err != nil {
			return err
		}
		peers[w] = cl.DataAddr()
	}
	for _, w := range c.workers {
		cl, epoch, err := c.fleet.client(w)
		if err != nil {
			return err
		}
		c.regs[w].Peers = peers
		if err := cl.Register(c.regs[w]); err != nil {
			return err
		}
		c.registeredEpoch[w] = epoch
	}
	return nil
}

// EnsureRegistered verifies every participating worker is reachable and
// still holds a current registration, re-registering the graph everywhere
// when any worker's control connection was redialed since the last
// registration (a restarted daemon comes back empty, and its data address
// changed, so every peer's map must refresh). Every step runs through this
// check; serving-fleet probes also call it directly to readmit a restarted
// replica before routing traffic to it. regMu serializes concurrent
// callers so one re-registers and the rest observe the fresh epochs.
func (c *TCPCluster) EnsureRegistered() error {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	reRegister := false
	for _, w := range c.workers {
		_, epoch, err := c.fleet.client(w)
		if err != nil {
			return err
		}
		if epoch != c.registeredEpoch[w] {
			reRegister = true
		}
	}
	if reRegister {
		return c.registerAll()
	}
	return nil
}

// Run executes one step (Background context).
func (c *TCPCluster) Run(feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	return c.RunCtx(context.Background(), feeds)
}

// RunCtx executes one step under ctx: feeds are broadcast to every worker,
// the workers' executors make independent progress coordinating only
// through the step-scoped rendezvous, and the fetches come back reassembled
// in caller order. Cancellation (or the first worker failure) is fanned out
// as an abort so every partition's blocked Recvs drain; the step fails with
// a wrapped error and the cluster remains usable for the next step.
//
// With CheckpointEvery set, every n-th step is a checkpoint boundary: after
// the step's values are in, RunCtx quiesces the cluster and captures a
// distributed checkpoint before returning. A checkpoint failure fails the
// step (the values are discarded) — callers recover the same way they would
// from a step failure.
func (c *TCPCluster) RunCtx(ctx context.Context, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	out, _, step, err := c.runStep(ctx, feeds, false)
	if err != nil {
		return nil, err
	}
	if c.opts.CheckpointEvery > 0 && step%c.opts.CheckpointEvery == 0 {
		if _, err := c.Checkpoint(); err != nil {
			return nil, fmt.Errorf("distrib: step %d: auto-checkpoint: %w", step, err)
		}
	}
	return out, nil
}

// RunTraced executes one step with per-node tracing enabled on every
// worker and merges the span timelines the workers' replies carry into one
// Chrome trace-event file (pid = worker, tid = device/stream, flow events
// linking Send->Recv across partitions) loadable in Perfetto or
// chrome://tracing. Returns the step's fetches and the merged JSON.
func (c *TCPCluster) RunTraced(ctx context.Context, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, []byte, error) {
	out, resps, _, err := c.runStep(ctx, feeds, true)
	if err != nil {
		return nil, nil, err
	}
	parts := make([]trace.Part, len(c.workers))
	for i, w := range c.workers {
		parts[i] = trace.Part{PID: i + 1, Name: w, Base: resps[w].Base, Events: resps[w].Spans}
	}
	js, err := trace.MergeChrome(parts)
	if err != nil {
		return nil, nil, err
	}
	return out, js, nil
}

// runStep is RunCtx without the checkpoint policy; it holds the read side
// of ckptGate for its entire duration so checkpoints only ever observe
// step boundaries. It returns the fetches, every worker's reply by name,
// and the step number.
func (c *TCPCluster) runStep(ctx context.Context, feeds map[string]*tensor.Tensor, traced bool) ([]*tensor.Tensor, map[string]*cluster.StepResp, uint64, error) {
	c.ckptGate.RLock()
	defer c.ckptGate.RUnlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, 0, fmt.Errorf("distrib: cluster closed")
	}
	c.step++
	step := c.step
	c.outstanding[step] = true
	released := c.released
	c.mu.Unlock()
	defer c.finishStep(step)

	// Reconnect path: if any worker's control conn died (daemon restart),
	// redial and re-register everywhere — peer data addresses changed.
	if err := c.EnsureRegistered(); err != nil {
		return nil, nil, step, fmt.Errorf("distrib: step %d: %w", step, err)
	}

	wireFeeds := cluster.FeedsToWire(feeds)
	// Every launched client answers exactly once on replies — the worker's
	// StepResp, or a synthetic one when its connection dies — so a slot per
	// worker means no client ever blocks on it, even after a canceled step
	// has stopped reading.
	replies := make(chan *cluster.StepResp, len(c.workers))
	launched := make([]*cluster.Client, 0, len(c.workers))
	abortAll := func(reason string) {
		for _, cl := range launched {
			cl.Abort(c.gid, step, reason)
		}
	}
	for _, w := range c.workers {
		cl, _, err := c.fleet.client(w)
		if err != nil {
			// A worker died between the epoch check and launch: abort the
			// step on every worker already launched, or their executors
			// would block in cross-worker Recvs for tokens that will never
			// arrive.
			abortAll(err.Error())
			return nil, nil, step, fmt.Errorf("distrib: step %d: %w", step, err)
		}
		cl.StartStep(&cluster.StepReq{
			GraphID:        c.gid,
			Step:           step,
			Feeds:          wireFeeds,
			ReleaseThrough: released,
			Trace:          traced,
		}, replies)
		launched = append(launched, cl)
	}

	// Take the replies as they arrive: the first failure (or the context
	// firing) must abort the other workers immediately — waiting on workers
	// in a fixed order would let a healthy-but-blocked worker delay the
	// fan-out.
	var firstErr error
	resps := make(map[string]*cluster.StepResp, len(launched))
	for range launched {
		select {
		case r := <-replies:
			if r.Err != "" && firstErr == nil {
				firstErr = fmt.Errorf("distrib: step %d: worker %q: %s", step, r.Worker, r.Err)
				abortAll(r.Err)
			}
			resps[r.Worker] = r
		case <-ctx.Done():
			// Fan the abort out and return promptly — blocking here until
			// every worker answers would let one wedged-but-connected
			// daemon defeat cancellation. The late replies land in the
			// buffered channel (no leak), and the canceled step's scopes
			// are reclaimed by the release watermark.
			abortAll(context.Cause(ctx).Error())
			return nil, nil, step, fmt.Errorf("distrib: step %d canceled: %w", step, context.Cause(ctx))
		}
	}
	if firstErr != nil {
		return nil, nil, step, firstErr
	}

	// Reassemble fetches in caller order.
	out := make([]*tensor.Tensor, len(c.fetches))
	for i := range c.fetches {
		r := resps[c.fetchWorker[i]]
		if r == nil {
			return nil, nil, step, fmt.Errorf("distrib: step %d: no response from worker %q for fetch %d", step, c.fetchWorker[i], i)
		}
		if c.fetchSlot[i] >= len(r.Vals) {
			return nil, nil, step, fmt.Errorf("distrib: step %d: worker %q returned %d values, fetch %d needs slot %d",
				step, c.fetchWorker[i], len(r.Vals), i, c.fetchSlot[i])
		}
		t, err := cluster.TensorFromWire(r.Vals[c.fetchSlot[i]])
		if err != nil {
			return nil, nil, step, fmt.Errorf("distrib: fetch %d: %w", i, err)
		}
		out[i] = t
	}
	return out, resps, step, nil
}

// finishStep retires a step and advances the completed-through watermark
// (piggybacked on the next StepReq so workers can release old scopes).
func (c *TCPCluster) finishStep(step uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.outstanding, step)
	min := c.step + 1
	for s := range c.outstanding {
		if s < min {
			min = s
		}
	}
	if min-1 > c.released {
		c.released = min - 1
	}
}

// Sig returns the graph signature (GraphSig over the session variables the
// graph declares) that this cluster's checkpoints are keyed by.
func (c *TCPCluster) Sig() uint64 { return c.sig }

// Step returns the last step number handed out.
func (c *TCPCluster) Step() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.step
}

// SetStep positions the step counter (resume-from-checkpoint): the next
// RunCtx executes step n+1. The release watermark moves with it so the
// first resumed step does not ask workers to release steps that never ran
// under this graph id.
func (c *TCPCluster) SetStep(n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step = n
	c.released = n
}

// checkVarOwnership rejects a graph in which the same session variable is
// hosted by two workers: each worker holds an independent container, so
// such "shared" variables are silently divergent copies — checkpointing
// them would record two contradictory values under one name.
func (c *TCPCluster) checkVarOwnership() error {
	owner := map[string]string{}
	for _, w := range c.workers {
		for _, v := range c.hosted[w] {
			if prev, dup := owner[v]; dup {
				return fmt.Errorf("distrib: variable %q is hosted by both %q and %q — one variable, one owning worker", v, prev, w)
			}
			owner[v] = w
		}
	}
	return nil
}

// Checkpoint quiesces the cluster at the current step boundary and captures
// a distributed checkpoint: every variable-hosting worker snapshots its
// shard over the control plane, the driver writes the shards and then the
// manifest (durably, in that order), and LATEST flips to the new step. It
// returns the step the checkpoint captured. Concurrent RunCtx callers block
// for the checkpoint's duration and then proceed.
func (c *TCPCluster) Checkpoint() (uint64, error) {
	if c.opts.CheckpointDir == "" {
		return 0, fmt.Errorf("distrib: Checkpoint needs TCPOptions.CheckpointDir")
	}
	if err := c.checkVarOwnership(); err != nil {
		return 0, err
	}
	c.ckptGate.Lock()
	defer c.ckptGate.Unlock()
	c.mu.Lock()
	step := c.step
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, fmt.Errorf("distrib: cluster closed")
	}
	m := &checkpoint.Manifest{Sig: c.sig, Step: step}
	for _, w := range c.workers {
		if len(c.hosted[w]) == 0 {
			continue
		}
		cl, _, err := c.fleet.client(w)
		if err != nil {
			return 0, fmt.Errorf("distrib: checkpoint step %d: %w", step, err)
		}
		snaps, err := cl.Checkpoint(c.gid, step)
		if err != nil {
			return 0, fmt.Errorf("distrib: checkpoint step %d: %w", step, err)
		}
		state, err := cluster.SnapshotsFromWire(snaps)
		if err != nil {
			return 0, fmt.Errorf("distrib: checkpoint step %d: worker %q: %w", step, w, err)
		}
		shard, err := checkpoint.WriteShard(c.opts.CheckpointDir, step, w, state)
		if err != nil {
			return 0, fmt.Errorf("distrib: checkpoint step %d: %w", step, err)
		}
		m.Shards = append(m.Shards, shard)
	}
	if err := checkpoint.WriteManifest(c.opts.CheckpointDir, m); err != nil {
		return 0, fmt.Errorf("distrib: checkpoint step %d: %w", step, err)
	}
	return step, nil
}

// RestoreState installs variable values into the workers hosting them —
// the push half of resume-from-checkpoint, also used to seed initial
// variable values. Shards are re-mapped by variable name, so state captured
// under one worker set restores onto another. A variable no worker hosts is
// an error: the state and the graph disagree about what exists.
func (c *TCPCluster) RestoreState(state map[string]*tensor.Tensor) error {
	if len(state) == 0 {
		return nil
	}
	if err := c.checkVarOwnership(); err != nil {
		return err
	}
	c.ckptGate.Lock()
	defer c.ckptGate.Unlock()
	routed := map[string]bool{}
	for _, w := range c.workers {
		shard := map[string]*tensor.Tensor{}
		for _, name := range c.hosted[w] {
			if t, ok := state[name]; ok {
				shard[name] = t
				routed[name] = true
			}
		}
		if len(shard) == 0 {
			continue
		}
		cl, _, err := c.fleet.client(w)
		if err != nil {
			return fmt.Errorf("distrib: restore: %w", err)
		}
		if err := cl.Restore(c.gid, cluster.SnapshotsToWire(shard)); err != nil {
			return fmt.Errorf("distrib: restore: %w", err)
		}
	}
	for name := range state {
		if !routed[name] {
			return fmt.Errorf("distrib: restore: no worker hosts variable %q", name)
		}
	}
	return nil
}

// Close releases the graph on every worker. The fleet stays open for other
// clusters.
func (c *TCPCluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, w := range c.workers {
		if cl := c.fleet.liveClient(w); cl != nil {
			cl.Release(c.gid)
		}
	}
}
