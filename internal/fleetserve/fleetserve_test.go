package fleetserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// startDaemons launches n in-process worker daemons on loopback named with
// the given prefix.
func startDaemons(t *testing.T, prefix string, n int) ([]*cluster.Worker, []string) {
	t.Helper()
	ws := make([]*cluster.Worker, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := cluster.NewWorker(fmt.Sprintf("%s%d", prefix, i), "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
		addrs[i] = w.Addr()
	}
	t.Cleanup(func() {
		for _, w := range ws {
			if w != nil {
				w.Close()
			}
		}
	})
	return ws, addrs
}

// buildAddN: y = x + len(workers), with one cross-worker hop per extra
// worker (so multi-worker replicas exercise the rendezvous send path and
// fault injection has messages to eat). x is [rows, d]; output lives on
// the last worker.
func buildAddN(workers []string) (*core.Builder, []graph.Output, error) {
	b := core.NewBuilder()
	var out graph.Output
	b.WithDevice(workers[0]+"/cpu", func() {
		x := b.Placeholder("x")
		out = b.Add(x, b.Scalar(1))
		for _, w := range workers[1:] {
			w := w
			b.WithDevice(w+"/cpu", func() {
				out = b.Add(out, b.Scalar(1))
			})
		}
	})
	return b, []graph.Output{out}, b.Err()
}

// addNConfig is the stateless test model shared by most router tests.
func addNConfig() Config {
	return Config{
		Build:  buildAddN,
		Feeds:  []string{"x"},
		Warmup: []*tensor.Tensor{tensor.FromFloats([]float64{0, 0}, 1, 2)},
	}
}

// checkAddN asserts one predict result for input value v over nWorkers.
func checkAddN(t *testing.T, outs []*tensor.Tensor, v float64, nWorkers int) {
	t.Helper()
	if len(outs) != 1 {
		t.Fatalf("got %d outputs, want 1", len(outs))
	}
	want := v + float64(nWorkers)
	for _, got := range outs[0].F {
		if got != want {
			t.Fatalf("output %v, want %v", got, want)
		}
	}
}

func in(v float64) *tensor.Tensor { return tensor.FromFloats([]float64{v, v}, 1, 2) }

// fastOpts is a test-friendly routing policy: quick probes, quick breaker
// recovery, short steps.
func fastOpts() Options {
	return Options{
		ProbeInterval:  50 * time.Millisecond,
		BreakerBackoff: backoff.Exp{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
		StepTimeout:    2 * time.Second,
		Batch:          serve.Options{MaxQueueDelay: time.Millisecond},
	}
}

// TestRouterPredictAndLeastLoaded: correctness over a 2-replica pool under
// concurrency — every request answers with its own rows, and both replicas
// see traffic (dispatch is load-spread, not pinned).
func TestRouterPredictAndLeastLoaded(t *testing.T) {
	_, addrsA := startDaemons(t, "ra", 1)
	_, addrsB := startDaemons(t, "rb", 1)
	r, err := New(context.Background(), addNConfig(), fastOpts(), addrsA, addrsB)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs, err := r.Predict(context.Background(), in(float64(i)))
			if err != nil {
				errs <- err
				return
			}
			if got, want := outs[0].F[0], float64(i)+1; got != want {
				errs <- fmt.Errorf("request %d: got %v, want %v", i, got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := r.Snapshot()
	if st.Requests != 64 {
		t.Fatalf("requests = %d, want 64", st.Requests)
	}
	served := 0
	for _, rs := range st.Replicas {
		if rs.Serve.BatchedRequests > 0 {
			served++
		}
	}
	if served != 2 {
		t.Fatalf("only %d of 2 replicas served traffic: %+v", served, st.Replicas)
	}
}

// TestBreakerTripRecoverReadmit walks the whole breaker state machine: a
// killed daemon's replica trips (request-driven or probe-driven), failed
// readmission probes count up while it stays dead (open -> half-open ->
// open cycles), predicts keep succeeding on the survivor throughout, and
// after a restart at the same control address the replica is re-registered
// and readmitted automatically.
func TestBreakerTripRecoverReadmit(t *testing.T) {
	victims, addrsA := startDaemons(t, "va", 1)
	_, addrsB := startDaemons(t, "vb", 1)
	r, err := New(context.Background(), addNConfig(), fastOpts(), addrsA, addrsB)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	victimName := victims[0].Name()
	ctrlAddr := victims[0].Addr()

	// Kill the first replica's daemon (the in-process kill -9).
	victims[0].Close()
	victims[0] = nil

	// Drive requests through the outage: every one must succeed via the
	// survivor (a dead replica costs capacity, not availability).
	deadline := time.Now().Add(5 * time.Second)
	tripped := false
	for time.Now().Before(deadline) && !tripped {
		outs, err := r.Predict(context.Background(), in(3))
		if err != nil {
			t.Fatalf("predict during outage: %v", err)
		}
		checkAddN(t, outs, 3, 1)
		for _, rs := range r.Snapshot().Replicas {
			if rs.Name == victimName && rs.State != StateActive.String() {
				tripped = true
			}
		}
	}
	if !tripped {
		t.Fatal("dead replica never left the pool")
	}
	if st := r.Snapshot(); st.Ejections == 0 {
		t.Fatalf("ejections = 0 after trip: %+v", st)
	}

	// While the daemon stays dead, readmission probes must fail and count
	// up (proves open -> half-open -> open cycling).
	deadline = time.Now().Add(5 * time.Second)
	probed := false
	for time.Now().Before(deadline) && !probed {
		for _, rs := range r.Snapshot().Replicas {
			if rs.Name == victimName && rs.ProbeAttempt >= 1 {
				probed = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !probed {
		t.Fatal("no failed readmission probe was recorded while the daemon was dead")
	}

	// Restart at the same control address: the prober must readmit it
	// without any call from us.
	w, err := cluster.NewWorker(victimName, ctrlAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	deadline = time.Now().Add(10 * time.Second)
	readmitted := false
	for time.Now().Before(deadline) && !readmitted {
		for _, rs := range r.Snapshot().Replicas {
			if rs.Name == victimName && rs.State == StateActive.String() {
				readmitted = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !readmitted {
		t.Fatalf("restarted daemon was never readmitted: %+v", r.Snapshot().Replicas)
	}
	if st := r.Snapshot(); st.Readmissions == 0 {
		t.Fatalf("readmissions = 0 after readmit: %+v", st)
	}
	// The readmitted replica serves correct answers.
	outs, err := r.Predict(context.Background(), in(5))
	if err != nil {
		t.Fatal(err)
	}
	checkAddN(t, outs, 5, 1)
}

// TestHedgeWinsAndLoserCanceled: the primary replica is slow (injected
// fabric latency over its cross-worker hop), so the hedge fires, wins on
// the fast replica, and the slow arm is canceled — with no goroutine or
// in-flight leak afterwards (NumGoroutine bracket, like exec's pool
// tests).
func TestHedgeWinsAndLoserCanceled(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		// Slow replica: two workers, so its step pays the injected fabric
		// latency on the hop. Fast replica: one worker, no hops, no
		// latency.
		slowWs, slowAddrs := startDaemons(t, "hs", 2)
		for _, w := range slowWs {
			w.Rendezvous().SetFabric(60*time.Millisecond, 0)
		}
		fastWs, fastAddrs := startDaemons(t, "hf", 1)
		defer func() {
			// Close the daemons before the goroutine bracket below —
			// t.Cleanup would run after it and their accept loops would
			// read as leaks.
			for _, ws := range [][]*cluster.Worker{slowWs, fastWs} {
				for i, w := range ws {
					w.Close()
					ws[i] = nil
				}
			}
		}()
		cfg := addNConfig()
		opts := fastOpts()
		opts.Hedge = true
		r, err := New(context.Background(), cfg, opts, slowAddrs, fastAddrs)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		// The slow replica joins first, so an idle pool's tie-break picks
		// it as the primary; the hedge must answer from the fast one well
		// before the slow step's latency.
		for i := 0; i < 8; i++ {
			start := time.Now()
			outs, err := r.Predict(context.Background(), in(float64(i)))
			if err != nil {
				t.Fatalf("predict %d: %v", i, err)
			}
			if got := outs[0].F[0]; got != float64(i)+1 && got != float64(i)+2 {
				t.Fatalf("predict %d: got %v, want %v (fast) or %v (slow)", i, got, float64(i)+1, float64(i)+2)
			}
			if d := time.Since(start); d > 55*time.Millisecond {
				t.Fatalf("predict %d took %v — hedging never beat the slow replica", i, d)
			}
		}
		st := r.Snapshot()
		if st.Hedges == 0 || st.HedgeWins == 0 {
			t.Fatalf("hedges=%d hedgeWins=%d, want both > 0", st.Hedges, st.HedgeWins)
		}
		// No in-flight leak: the losing arms' attempts must unwind.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			total := int64(0)
			for _, rs := range r.Snapshot().Replicas {
				total += rs.InFlight
			}
			if total == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		for _, rs := range r.Snapshot().Replicas {
			if rs.InFlight != 0 {
				t.Fatalf("replica %s still has %d in-flight attempts after all predicts returned", rs.Name, rs.InFlight)
			}
		}
	}()
	awaitGoroutines(t, before)
}

// awaitGoroutines waits for the goroutine count to return to (near) the
// pre-test baseline: hedge arms, batcher internals, prober, and daemon
// goroutines must all have exited.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestFaultInjectedFabricMasksFailures is the in-process chaos invariant:
// with seeded conn-reset and send-drop injection eating rendezvous
// messages inside two 2-worker replicas, every client predict still
// succeeds with the right answer — step failures convert to bounded,
// rerouted retries. (The breaker threshold is set high so this test pins
// the retry path; breaker behavior is pinned by
// TestBreakerTripRecoverReadmit.)
func TestFaultInjectedFabricMasksFailures(t *testing.T) {
	wsA, addrsA := startDaemons(t, "fa", 2)
	wsB, addrsB := startDaemons(t, "fb", 2)
	for _, w := range append(wsA, wsB...) {
		w.Rendezvous().SetFaults(1234, 0.08, 0.08)
	}
	cfg := addNConfig()
	opts := fastOpts()
	opts.StepTimeout = 300 * time.Millisecond // a dropped token fails the step fast
	opts.BreakerThreshold = 1000
	opts.MaxRetries = 4
	r, err := New(context.Background(), cfg, opts, addrsA, addrsB)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 60; i++ {
		outs, err := r.Predict(context.Background(), in(float64(i)))
		if err != nil {
			t.Fatalf("predict %d under fault injection: %v", i, err)
		}
		checkAddN(t, outs, float64(i), 2)
	}
	st := r.Snapshot()
	t.Logf("60 predicts under 8%% drop + 8%% reset: retries=%d exhausted=%d", st.Retries, st.Exhausted)
	if st.Exhausted != 0 {
		t.Fatalf("retry budget exhausted %d times — failures leaked to clients", st.Exhausted)
	}
}

// TestPredictErrorTaxonomy: a malformed request is a non-retriable client
// error (ErrInvalidRequest, no replica penalty); an empty pool is
// ErrUnavailable.
func TestPredictErrorTaxonomy(t *testing.T) {
	_, addrs := startDaemons(t, "ta", 1)
	r, err := New(context.Background(), addNConfig(), fastOpts(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Wrong arity → invalid request, not a retry storm.
	if _, err := r.Predict(context.Background(), in(1), in(2)); !errors.Is(err, serve.ErrInvalidRequest) {
		t.Fatalf("wrong-arity predict: got %v, want ErrInvalidRequest", err)
	}
	st := r.Snapshot()
	if st.Retries != 0 {
		t.Fatalf("invalid request consumed %d retries", st.Retries)
	}
	for _, rs := range st.Replicas {
		if rs.ConsecFails != 0 {
			t.Fatalf("invalid request penalized replica %s (consecFails=%d)", rs.Name, rs.ConsecFails)
		}
	}

	// Empty pool → ErrUnavailable (the 503 signal).
	r.Close()
	if _, err := r.Predict(context.Background(), in(1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("empty-pool predict: got %v, want ErrUnavailable", err)
	}
}

// TestStatefulReadmissionRestoresInit: a replica whose graph reads session
// state (Config.Init) must serve correct answers again after its daemon is
// killed and restarted — readmission re-registers AND re-restores, because
// the restarted daemon came back blank.
func TestStatefulReadmissionRestoresInit(t *testing.T) {
	victims, addrsA := startDaemons(t, "sa", 1)
	survivors, addrsB := startDaemons(t, "sb", 1)
	build := func(workers []string) (*core.Builder, []graph.Output, error) {
		b := core.NewBuilder()
		var out graph.Output
		b.WithDevice(workers[0]+"/cpu", func() {
			x := b.Placeholder("x")
			out = b.Mul(x, b.ReadVariable("scale"))
		})
		return b, []graph.Output{out}, b.Err()
	}
	cfg := Config{
		Build:  build,
		Feeds:  []string{"x"},
		Init:   map[string]*tensor.Tensor{"scale": tensor.Scalar(3)},
		Warmup: []*tensor.Tensor{tensor.FromFloats([]float64{1, 1}, 1, 2)},
	}
	r, err := New(context.Background(), cfg, fastOpts(), addrsA, addrsB)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	victimName := victims[0].Name()
	ctrlAddr := victims[0].Addr()
	check := func(v float64) {
		t.Helper()
		outs, err := r.Predict(context.Background(), in(v))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := outs[0].F[0], v*3; got != want {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	check(2)

	victims[0].Close()
	victims[0] = nil
	w, err := cluster.NewWorker(victimName, ctrlAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Keep traffic flowing until the victim has gone through a full
	// trip-and-readmit cycle. Traffic matters: an immediately-restarted
	// daemon can answer liveness probes before the stale control
	// connection has even reported EOF, so detection may come from a
	// failed request rather than the prober — either way every predict
	// must still succeed (via the survivor) with the restored state.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		check(2)
		st := r.Snapshot()
		readmitted := false
		for _, rs := range st.Replicas {
			if rs.Name == victimName && rs.State == StateActive.String() && st.Readmissions >= 1 {
				readmitted = true
			}
		}
		if readmitted {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := r.Snapshot(); st.Readmissions == 0 {
		t.Fatalf("victim never readmitted: %+v", st.Replicas)
	}
	// Force traffic through the restarted replica by stopping the
	// survivor's daemon: if readmission had skipped the state restore,
	// this predict would fail on an uninitialized variable.
	survivors[0].Close()
	survivors[0] = nil
	check(7)
}

// TestConcurrentPredictCloseMembershipStress races Predict against Close
// and Join (run under -race at GOMAXPROCS 1/2/4 in CI): results
// that arrive must be correct, errors after teardown must be the graceful
// sentinels, and nothing deadlocks or panics.
func TestConcurrentPredictCloseMembershipStress(t *testing.T) {
	_, addrsA := startDaemons(t, "xa", 1)
	_, addrsB := startDaemons(t, "xb", 1)
	// A replica's name is its daemons', so each join takes daemons of its own.
	var joiners [][]string
	for i := 0; i < 5; i++ {
		_, addrs := startDaemons(t, fmt.Sprintf("xc%d-", i), 1)
		joiners = append(joiners, addrs)
	}
	r, err := New(context.Background(), addNConfig(), fastOpts(), addrsA, addrsB)
	if err != nil {
		t.Fatal(err)
	}
	joined := r.Snapshot().Joins

	var wrong atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				outs, err := r.Predict(context.Background(), in(float64(i%17)))
				if err != nil {
					continue // unavailability during churn is allowed; wrong answers are not
				}
				if got, want := outs[0].F[0], float64(i%17)+1; got != want {
					wrong.Add(1)
				}
			}
		}()
	}
	// Membership churn: replicas join while predicts run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, addrs := range joiners {
			if _, err := r.Join(context.Background(), addrs...); err != nil {
				return // router closed underneath the join
			}
		}
	}()

	// Tear down once the mixture has made progress on both sides: predicts
	// through the pool, and the churned replica joined at least twice.
	deadline := time.Now().Add(10 * time.Second)
	for st := r.Snapshot(); st.Requests < 200 || st.Joins < joined+2; st = r.Snapshot() {
		if time.Now().After(deadline) {
			t.Errorf("stress mixture stalled at %d requests, %d joins", st.Requests, st.Joins-joined)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Close()
	close(stop)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d predicts returned wrong values during churn", n)
	}
	// After Close, Predict and Join fail with graceful sentinels.
	if _, err := r.Predict(context.Background(), in(1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("predict after close: %v, want ErrUnavailable", err)
	}
	if _, err := r.Join(context.Background(), joiners[0]...); !errors.Is(err, ErrClosed) {
		t.Fatalf("join after close: %v, want ErrClosed", err)
	}
}
