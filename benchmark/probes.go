package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/dcf"
	"repro/internal/exec"
	"repro/internal/ops"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
)

// The layer probes time the public functions of each module from outside,
// at the shapes the workloads use. They are the same in every traced run,
// whichever workload it loads, so a layer's number can be read beside any
// workload's end-to-end numbers.

// prober runs probes for a fixed duration each and records one span per
// probe group in the traced run's recorder.
type prober struct {
	dur      time.Duration
	rec      *recorder
	seed     uint64
	dcfserve string // path of the built cmd/dcfserve binary
	metrics  map[string]float64
	// twin is the in-process serve model's traced 32-row step; serve_http's
	// traced run uses it as its step profile.
	twin stepProfile

	mu  sync.Mutex
	err error // the first failure inside a timed call
}

// checked wraps a probe call so that its first failure is kept: timed
// loops go on, and the group fails when it ends.
func (p *prober) checked(fn func() error) func() {
	return func() {
		if err := fn(); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
		}
	}
}

// timed runs fn repeatedly for d (at least 20 times) and returns the
// per-call times in microseconds.
func (p *prober) timed(d time.Duration, fn func() error) []float64 {
	call := p.checked(fn)
	var us []float64
	deadline := time.Now().Add(d)
	for len(us) < 20 || time.Now().Before(deadline) {
		t0 := time.Now()
		call()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us
}

// timedBy is timed from n concurrent callers, each with its own fn; the
// callers' times come back in one slice.
func (p *prober) timedBy(n int, d time.Duration, fn func(c int) func() error) []float64 {
	per := make([][]float64, n)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[c] = p.timed(d, fn(c))
		}()
	}
	wg.Wait()
	return slices.Concat(per...)
}

// run executes one named group of probes under a span.
func (p *prober) run(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	p.rec.add("probe:"+name, t0, time.Now(), -1, -1, 0)
	if err == nil {
		err = p.err
	}
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

func (p *prober) all() error {
	for _, g := range []struct {
		name string
		fn   func() error
	}{
		{"tensor", p.tensorProbes},
		{"core", p.coreProbes},
		{"setup", p.setupProbes},
		{"serve", p.serveProbes},
		{"dcfserve", p.dcfserveProbes},
		{"rendezvous", p.rendezvousProbes},
		{"distrib", p.distribProbes},
	} {
		runtime.GC()
		if err := p.run(g.name, g.fn); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) tensorProbes() error {
	rng := tensor.NewRNG(p.seed)
	rand := func(shape ...int) *tensor.Tensor { return tensor.RandNormal(rng, 0, 1, shape...) }
	kernel := func(name string, recycle bool, fn func() (*tensor.Tensor, error)) {
		p.metrics[name] = median(p.timed(p.dur, func() error {
			out, err := fn()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			// The executor returns a pooled kernel output to the pool
			// once its consumers are done; doing the same keeps the probe
			// at the steady state a step sees.
			if recycle {
				tensor.Recycle(out)
			}
			return nil
		}))
	}
	a, w := rand(rnnBatch, rnnIn+rnnUnits), rand(rnnIn+rnnUnits, 4*rnnUnits)
	kernel("tensor.matmul_train_us", true, func() (*tensor.Tensor, error) { return tensor.MatMul(a, w) })
	xi, wi := rand(32, httpDim), rand(httpDim, httpDim)
	kernel("tensor.matmul_infer_us", true, func() (*tensor.Tensor, error) { return tensor.MatMul(xi, wi) })
	kernel("tensor.transpose_us", false, func() (*tensor.Tensor, error) { return tensor.Transpose(w) })
	z, bias := rand(rnnBatch, 4*rnnUnits), rand(4*rnnUnits)
	kernel("tensor.bcast_add_us", true, func() (*tensor.Tensor, error) { return tensor.AddInto(nil, z, bias) })
	kernel("tensor.unbroadcast_us", false, func() (*tensor.Tensor, error) { return tensor.UnbroadcastTo(z, []int{4 * rnnUnits}) })
	r1, r2 := rand(httpRows, httpDim), rand(httpRows, httpDim)
	kernel("tensor.concat_rows_us", false, func() (*tensor.Tensor, error) { return tensor.Concat(0, r1, r2) })
	kernel("tensor.slice_rows_us", false, func() (*tensor.Tensor, error) { return tensor.SliceRows(xi, httpRows, httpRows) })
	return nil
}

func (p *prober) coreProbes() error {
	g := dcf.NewGraph()
	y := g.Placeholder("x").Neg()
	sess := dcf.NewSession(g)
	defer sess.Close()
	call, err := sess.MakeCallable(dcf.CallableSpec{Feeds: []string{"x"}, Fetches: []dcf.Tensor{y}})
	if err != nil {
		return err
	}
	ctx, x := context.Background(), dcf.ScalarVal(1)
	one := func() error {
		_, err := call.Call(ctx, x)
		return err
	}
	p.metrics["core.call_fixed_us"] = median(p.timed(p.dur, one))
	p.metrics["core.allocs_per_call"] = testing.AllocsPerRun(200, p.checked(one))
	return nil
}

// setupProbes split rnn_train's set-up into its layers and read the pool's
// high-water mark around one training step.
func (p *prober) setupProbes() error {
	var gradMs, callableMs []float64
	for k := 0; k < 5; k++ {
		m := buildRNNForward()
		t0 := time.Now()
		if err := m.addSGD(); err != nil {
			return err
		}
		gradMs = append(gradMs, float64(time.Since(t0).Nanoseconds())/1e6)
		sess := dcf.NewSession(m.g)
		if err := sess.InitVariables(); err != nil {
			return err
		}
		t0 = time.Now()
		call, err := sess.MakeCallable(m.spec())
		if err != nil {
			return err
		}
		callableMs = append(callableMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if k == 4 {
			p.metrics["graph.nodes_total"] = float64(m.g.Builder().G.NumNodes())
			x := dcf.RandNormal(p.seed, 0, 1, rnnT, rnnBatch, rnnIn)
			y := dcf.RandNormal(p.seed+1, 0, 0.3, rnnBatch, rnnUnits)
			ctx := context.Background()
			if _, err := call.Call(ctx, x, y); err != nil { // warm the pool
				return err
			}
			tensor.ResetPoolWater()
			if _, err := call.Call(ctx, x, y); err != nil {
				return err
			}
			p.metrics["tensor.pool_peak_bytes"] = float64(tensor.PoolPeakBytes())
		}
		sess.Close()
	}
	p.metrics["autodiff.gradients_ms"] = median(gradMs)
	p.metrics["core.make_callable_ms"] = median(callableMs)
	return nil
}

// serveProbes drive an in-process twin of dcfserve's model: the direct
// Callable path against the batched Server path, at the request size
// serve_http sends.
func (p *prober) serveProbes() error {
	g := dcf.NewGraph()
	x := g.PlaceholderTyped("x", dcf.Float, -1, httpDim)
	w1 := g.Variable("w1", dcf.GlorotUniform(1, httpDim, httpDim))
	b1 := g.Variable("b1", dcf.Zeros(httpDim))
	w2 := g.Variable("w2", dcf.GlorotUniform(2, httpDim, httpClasses))
	scores := x.MatMul(w1).Add(b1).Tanh().MatMul(w2).Softmax()
	if err := g.Err(); err != nil {
		return err
	}
	sess := dcf.NewSession(g)
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		return err
	}
	srv, err := dcf.NewServer(sess, dcf.CallableSpec{Feeds: []string{"x"}, Fetches: []dcf.Tensor{scores}}, dcf.BatchOptions{})
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	rows := dcf.RandNormal(p.seed, 0, 1, httpRows, httpDim)

	p.metrics["serve.predict_direct_us"] = median(p.timed(p.dur, func() error {
		_, err := srv.Callable().Call(ctx, rows)
		return err
	}))

	// Batched path under the same concurrency serve_http applies, so two
	// 16-row requests can share a batch instead of waiting out the delay.
	waits := make([][]float64, httpConns)
	latUs := p.timedBy(httpConns, p.dur, func(c int) func() error {
		return func() error {
			_, info, err := srv.PredictDetailed(ctx, rows)
			waits[c] = append(waits[c], float64(info.QueueDelay.Nanoseconds())/1e3)
			return err
		}
	})
	p.metrics["serve.predict_batched_us"] = median(latUs)
	p.metrics["serve.queue_wait_us_p50"] = median(slices.Concat(waits...))
	p.metrics["serve.avg_batch_rows"] = srv.Stats().AvgBatchRows()

	_, md, err := sess.RunCtx(ctx, dcf.RunOptions{
		Feeds: dcf.Feeds{"x": dcf.RandNormal(p.seed, 0, 1, 2*httpRows, httpDim)}, Fetches: []dcf.Tensor{scores}, Trace: true,
	})
	if err != nil {
		return err
	}
	p.twin = profileStep(tracerSpans(md.StepTrace))
	return nil
}

// dcfserveProbes load a dcfserve child the way serve_http does and read
// what the process cost from /proc.
func (p *prober) dcfserveProbes() error {
	child, err := spawnDcfserve(p.dcfserve)
	if err != nil {
		return err
	}
	defer child.stop()
	load := newHTTPLoad(child.url, httpConns, makeHTTPInputs(p.seed, 8))
	defer load.client.CloseIdleConnections()
	requests := &instance{call: load.call, check: load.check}

	cpu0, err := child.cpuSeconds()
	if err != nil {
		return err
	}
	// Eight probe-lengths of load: CPU time comes from /proc in 10 ms
	// ticks and needs a window that long to resolve.
	lat := p.timedBy(httpConns, 8*p.dur, func(c int) func() error {
		i := c
		return func() error {
			i += httpConns
			return requests.callChecked(c, i)
		}
	})
	cpu1, err := child.cpuSeconds()
	if err != nil {
		return err
	}
	rss, err := child.peakRSSMB()
	if err != nil {
		return err
	}
	p.metrics["dcfserve.cpu_ms_per_request"] = (cpu1 - cpu0) * 1e3 / float64(len(lat))
	p.metrics["dcfserve.peak_rss_mb"] = rss
	p.metrics["dcfserve.http_overhead_us"] = median(lat) - p.metrics["serve.predict_batched_us"]
	return nil
}

// rendezvousProbes time one Send → Recv hop between two Net peers on
// loopback, against the in-process Local table carrying the same payload.
func (p *prober) rendezvousProbes() error {
	a, err := rendezvous.NewNet("pa", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := rendezvous.NewNet("pb", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer("pb", b.Addr())

	big := exec.Token{Val: ops.TensorVal(dcf.RandNormal(p.seed, 0, 1, hopRows, hopCols))}
	small := exec.Token{Val: ops.TensorVal(tensor.Scalar(1))}
	seq := 0
	hop := func(send func(string, exec.Token) error, recv func(string, <-chan struct{}) (exec.Token, error), tok exec.Token) func() error {
		return func() error {
			seq++
			key := fmt.Sprintf("e=probe:0;dstd=pb/cpu;dstw=pb@%d", seq)
			if err := send(key, tok); err != nil {
				return err
			}
			_, err := recv(key, nil)
			return err
		}
	}
	netBig := hop(a.Send, b.Recv, big)
	hopUs := median(p.timed(p.dur, netBig))
	p.metrics["rendezvous.hop_us_128k"] = hopUs
	p.metrics["rendezvous.mb_per_s_128k"] = float64(hopRows*hopCols*8) / hopUs // bytes/µs = MB/s
	p.metrics["rendezvous.allocs_per_send_128k"] = testing.AllocsPerRun(50, p.checked(netBig))
	p.metrics["rendezvous.hop_us_scalar"] = median(p.timed(p.dur, hop(a.Send, b.Recv, small)))
	local := rendezvous.NewLocal(0, 0)
	p.metrics["rendezvous.local_hop_us_128k"] = median(p.timed(p.dur, hop(local.Send, local.Recv, big)))
	return nil
}

// distribProbes take cluster_loop's step apart: registration, the fixed
// cost of a step with no iterations, the cost of each further iteration,
// and the wire's share of a traced step.
func (p *prober) distribProbes() error {
	h, names, err := newHopFleet()
	if err != nil {
		return err
	}
	defer h.close()
	bld, fetches := buildHopGraph(names, dcf.RandNormal(p.seed, 0, 1, hopRows, hopCols))
	t0 := time.Now()
	if err := h.register(bld, fetches); err != nil {
		return err
	}
	p.metrics["cluster.register_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6

	step := func(limit int) func() error {
		feeds := hopFeeds(limit, tensor.Scalar(1))
		return func() error {
			out, err := h.tc.Run(feeds)
			if err == nil && out[0].ScalarValue() != float64(limit) {
				err = fmt.Errorf("count %v, want %d", out[0].ScalarValue(), limit)
			}
			return err
		}
	}
	fixed := median(p.timed(p.dur, step(0)))
	full := median(p.timed(p.dur, step(hopIters)))
	p.metrics["distrib.step_fixed_us"] = fixed
	p.metrics["distrib.iter_us"] = (full - fixed) / hopIters

	var shares []float64
	for k := 0; k < 5; k++ {
		_, js, err := h.tc.RunTraced(context.Background(), hopFeeds(hopIters, tensor.Scalar(1)))
		if err != nil {
			return err
		}
		spans, err := chromeSpans(js)
		if err != nil {
			return err
		}
		prof := profileStep(spans)
		shares = append(shares, prof.WireNs/prof.WallNs)
	}
	p.metrics["distrib.wire_share"] = median(shares)
	return nil
}
