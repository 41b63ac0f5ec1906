// Package distrib is the distributed runtime (§3, §4.4): it partitions a
// graph across devices, hosts one local executor per partition, and runs
// steps in which the executors make progress independently, communicating
// only through Send/Recv — no centralized per-iteration coordination. The
// coordinator (the Run caller) is involved only at step start and at
// completion or failure, as in the paper.
//
// Cluster is the in-process form: partitions run in one process connected
// by a shared rendezvous with configurable injected network latency (the
// benchmarks' deterministic stand-in for the paper's production fabric).
//
// TCPCluster is the multi-process form: Dial connects to generic worker
// daemons (internal/cluster.Worker, the cmd/dcfworker CLI), Fleet.NewCluster
// registers each worker's partitions once (gob-encoded subgraph, plans
// compiled and cached at registration), and RunCtx executes steps whose
// rendezvous keys are scoped per step over the wire; driver-side
// cancellation and worker failures fan out as abort control messages so
// every partition's blocked Recvs drain. See internal/cluster/README.md.
package distrib

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// Options configures an in-process cluster.
type Options struct {
	// DefaultDevice places unplaced nodes.
	DefaultDevice string
	// Latency is the simulated one-way network latency between any two
	// devices (0 for none). Applied to every Recv whose Send is remote.
	Latency time.Duration
	// Bandwidth is the simulated network bandwidth in bytes/second
	// (0 = infinite).
	Bandwidth float64
	// WorkerOf maps devices to workers for key routing; defaults to one
	// worker per device (so every cross-device edge pays Latency).
	WorkerOf partition.WorkerOf
	// ParallelIterations overrides the loop window.
	ParallelIterations int
	// Workers sizes the per-step kernel worker pool shared by every
	// partition (<= 0 = GOMAXPROCS). One pool serves the whole step, so
	// an 8-partition cluster draws from a single worker budget instead of
	// oversubscribing the machine with 8 independent pools.
	Workers int
	// Mem and Runner configure per-device memory/runners (may be nil).
	Mem    func(device string) ops.DeviceMem
	Runner func(device string) exec.Runner
}

// Cluster executes a partitioned graph with one executor per device. Like
// TensorFlow, a cluster is specialized to one run signature: the fetches
// and targets are fixed at construction (the graph is pruned to them before
// partitioning) and each Run executes one step.
type Cluster struct {
	b       *core.Builder
	opts    Options
	res     *partition.Result
	fetches []graph.Output

	// fetchDev routes each fetch to the partition owning its node; plans
	// holds one cached executor plan per device (with the partition's
	// fetches baked in), built once at construction so every Run takes
	// the dense fast path.
	fetchDev []string
	plans    map[string]*exec.Plan

	sessRes *ops.Resources
	rng     *tensor.RNG

	step int
	mu   sync.Mutex
}

// NewCluster prunes the builder's graph to the fetches/targets, partitions
// it, and prepares executors.
func NewCluster(b *core.Builder, fetches []graph.Output, targets []*graph.Node, opts Options) (*Cluster, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	if opts.DefaultDevice == "" {
		opts.DefaultDevice = "cpu:0"
	}
	partition.Place(b.G, opts.DefaultDevice)
	nodes := core.Prune(b.G, fetches, targets)
	res, err := partition.Partition(b.G, nodes, opts.WorkerOf)
	if err != nil {
		return nil, err
	}
	if err := partition.Validate(res); err != nil {
		return nil, err
	}
	// Full static verification of the partitioned program: Send/Recv key
	// pairing across partitions and the cross-partition rendezvous-cycle
	// check only make sense here, where every partition is visible.
	if ds := verify.CheckPartitions(b.G, res.Parts); len(ds) != 0 {
		return nil, fmt.Errorf("distrib: partitioned graph failed verification: %w", ds.Err())
	}
	fetchDev := make([]string, len(fetches))
	perDev := map[string][]graph.Output{}
	for i, f := range fetches {
		if f.Node == nil {
			return nil, fmt.Errorf("distrib: invalid fetch %d", i)
		}
		dev := f.Node.Device()
		fetchDev[i] = dev
		perDev[dev] = append(perDev[dev], f)
	}
	plans := make(map[string]*exec.Plan, len(res.Devices))
	for _, dev := range res.Devices {
		p, err := exec.NewPlan(b.G, res.Parts[dev], perDev[dev])
		if err != nil {
			return nil, fmt.Errorf("distrib: partition %q: %w", dev, err)
		}
		plans[dev] = p
	}
	return &Cluster{
		b:        b,
		opts:     opts,
		res:      res,
		fetches:  fetches,
		fetchDev: fetchDev,
		plans:    plans,
		sessRes:  ops.NewResources(),
		rng:      tensor.NewRNG(7),
	}, nil
}

// InitVariables runs the builder's variable initializers locally, sharing
// the cluster's session resources (coarse-grained checkpoint-style setup,
// as in §3's failure model).
func (c *Cluster) InitVariables() error {
	s := core.NewSession(c.b)
	s.SessRes = c.sessRes
	return s.InitVariables()
}

// Partitions returns the device partition sizes (for tests/tools).
func (c *Cluster) Partitions() map[string]int {
	out := map[string]int{}
	for dev, nodes := range c.res.Parts {
		out[dev] = len(nodes)
	}
	return out
}

// Run executes one step: feeds are visible to every partition; the fetches
// fixed at construction may live on any device. Executors run concurrently
// and coordinate only through the rendezvous; the first failure aborts the
// step.
func (c *Cluster) Run(feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	return c.RunCtx(context.Background(), feeds)
}

// RunCtx is Run under a context: when ctx is canceled (deadline, client
// disconnect) every partition's executor stops launching kernels, the
// shared rendezvous aborts so cross-partition Recvs drain instead of
// blocking, and the step returns an error wrapping ctx.Err().
func (c *Cluster) RunCtx(ctx context.Context, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	fetches := c.fetches
	c.mu.Lock()
	c.step++
	stepID := c.step
	c.mu.Unlock()

	base := rendezvous.NewLocal(c.opts.Latency, c.opts.Bandwidth)
	rv := rendezvous.Scoped(base, fmt.Sprintf("step%d", stepID))

	// One worker pool serves every partition of the step: partitions'
	// kernels draw from a shared budget instead of each executor sizing a
	// private pool to the whole machine. Workers spawn lazily (an
	// all-inline step never starts one) and drain with the step.
	pool := exec.NewPool(c.opts.Workers)
	defer pool.Close()

	type devResult struct {
		dev  string
		vals []ops.Value
		err  error
	}
	results := make(chan devResult, len(c.res.Devices))
	stepRes := ops.NewResources()
	var wg sync.WaitGroup
	for _, dev := range c.res.Devices {
		wg.Add(1)
		go func(dev string) {
			defer wg.Done()
			// The cached plan fixes Nodes and Fetches; only the
			// per-step state varies.
			ex, err := exec.NewFromPlan(c.plans[dev], exec.Config{
				Ctx:                ctx,
				Feeds:              feeds,
				StepRes:            stepRes,
				SessionRes:         c.sessRes,
				RNG:                tensor.NewRNG(uint64(stepID)*1e6 + 17),
				Rendezvous:         rv,
				ParallelIterations: c.opts.ParallelIterations,
				Workers:            c.opts.Workers,
				Pool:               pool,
				Mem:                c.opts.Mem,
				Runner:             c.opts.Runner,
			})
			if err != nil {
				results <- devResult{dev: dev, err: err}
				return
			}
			vals, err := ex.Run()
			results <- devResult{dev: dev, vals: vals, err: err}
		}(dev)
	}

	collected := map[string][]ops.Value{}
	var firstErr error
	for range c.res.Devices {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("distrib: partition %q: %w", r.dev, r.err)
			base.Abort(firstErr)
		}
		collected[r.dev] = r.vals
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Reassemble fetches in caller order.
	idx := map[string]int{}
	out := make([]*tensor.Tensor, len(fetches))
	for i, dev := range c.fetchDev {
		vals := collected[dev]
		j := idx[dev]
		idx[dev] = j + 1
		t, err := vals[j].Tensor()
		if err != nil {
			return nil, fmt.Errorf("distrib: fetch %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
