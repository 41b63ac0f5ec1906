package distrib

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// counterSpec is the canonical stateful job: the hop loop's result (== the
// fed limit) accumulates into the session variable "acc", so after step k
// the fetch is k*limit — the whole step history in one number.
func counterSpec(limit float64) JobSpec {
	return JobSpec{
		Build: func(workers []string) (*core.Builder, []graph.Output, error) {
			b, outs := cluster.BuildCounterJob(workers)
			return b, outs, b.Err()
		},
		Init: map[string]*tensor.Tensor{"acc": tensor.Scalar(0)},
		Feeds: func(step uint64) map[string]*tensor.Tensor {
			return map[string]*tensor.Tensor{"limit": tensor.Scalar(limit)}
		},
	}
}

// TestClusterCheckpointReplay exercises the raw driver API: checkpoint at a
// step boundary, keep stepping, then roll back to the checkpoint and verify
// the replayed steps reproduce the original run's fetches exactly.
func TestClusterCheckpointReplay(t *testing.T) {
	_, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	dir := t.TempDir()
	b, outs := cluster.BuildCounterJob([]string{"wA", "wB"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if err := tc.RestoreState(map[string]*tensor.Tensor{"acc": tensor.Scalar(0)}); err != nil {
		t.Fatal(err)
	}

	feeds := map[string]*tensor.Tensor{"limit": tensor.Scalar(4)}
	run := func(n int) []float64 {
		var got []float64
		for i := 0; i < n; i++ {
			vals, err := tc.Run(feeds)
			if err != nil {
				t.Fatalf("step: %v", err)
			}
			got = append(got, vals[0].ScalarValue())
		}
		return got
	}

	run(3) // steps 1..3: acc = 4, 8, 12
	ckStep, err := tc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckStep != 3 {
		t.Fatalf("checkpoint at step %d, want 3", ckStep)
	}
	original := run(2) // steps 4..5: acc = 16, 20

	// Roll back: restore the checkpoint into a freshly resumed cluster.
	tc.Close()
	resumed, err := fleet.Resume(counterSpec(4), TCPOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Step() != 3 {
		t.Fatalf("resumed at step %d, want 3", resumed.Step())
	}
	tc = resumed
	replayed := run(2)
	for i := range original {
		if replayed[i] != original[i] {
			t.Fatalf("replayed step %d: %v, want %v (rollback not bit-identical)", i+4, replayed[i], original[i])
		}
	}
}

// TestResumeAfterFullRestart kills every daemon and the fleet, restarts the
// daemons at the same control addresses, and resumes from the on-disk
// checkpoint — the process-death recovery story end to end.
func TestResumeAfterFullRestart(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	spec := counterSpec(5)
	opts := TCPOptions{CheckpointDir: dir, CheckpointEvery: 3}
	tc, err := fleet.startJobCluster(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 6; s++ { // auto-checkpoints at 3 and 6
		if _, err := tc.Run(spec.Feeds(uint64(s))); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}

	// Everything dies.
	tc.Close()
	fleet.Close()
	for _, w := range workers {
		w.Close()
	}

	// Daemons restart at the same control addresses; a new driver resumes.
	for i := range workers {
		w, err := cluster.NewWorker(workerName(i), addrs[i], "127.0.0.1:0")
		if err != nil {
			t.Fatalf("restart worker %d: %v", i, err)
		}
		workers[i] = w
		t.Cleanup(w.Close)
	}
	fleet2, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet2.Close()
	tc2, err := fleet2.Resume(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tc2.Close()
	if tc2.Step() != 6 {
		t.Fatalf("resumed at step %d, want 6", tc2.Step())
	}
	vals, err := tc2.Run(spec.Feeds(7))
	if err != nil {
		t.Fatalf("step 7 after restart: %v", err)
	}
	if got := vals[0].ScalarValue(); got != 35 { // 7 steps * limit 5
		t.Fatalf("step 7 fetch %v, want 35 (state not restored)", got)
	}
}

// TestResumeRemapsShards checkpoints on {wA, wB} with the accumulator
// hosted on wB, then resumes on {wA} alone: the dead worker's shard must be
// re-mapped to a surviving worker by variable name.
func TestResumeRemapsShards(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	dir := t.TempDir()
	// Reverse placement: with both workers live the job drives on wB.
	spec := counterSpec(2)
	spec.Build = func(ws []string) (*core.Builder, []graph.Output, error) {
		rev := make([]string, len(ws))
		for i, w := range ws {
			rev[len(ws)-1-i] = w
		}
		b, outs := cluster.BuildCounterJob(rev)
		return b, outs, b.Err()
	}
	opts := TCPOptions{CheckpointDir: dir}
	tc, err := fleet.startJobCluster(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 4; s++ {
		if _, err := tc.Run(spec.Feeds(uint64(s))); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	if _, err := tc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tc.Close()

	// wB (the accumulator's host) dies for good. Wait for the fleet to
	// notice (EOF detection on the control conn is asynchronous).
	workers[1].Close()
	for i := 0; fleet.Live("wB") && i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
	}

	tc2, err := fleet.Resume(spec, opts)
	if err != nil {
		t.Fatalf("resume without wB: %v", err)
	}
	defer tc2.Close()
	vals, err := tc2.Run(spec.Feeds(5))
	if err != nil {
		t.Fatalf("step 5 on survivors: %v", err)
	}
	if got := vals[0].ScalarValue(); got != 10 { // 5 steps * limit 2
		t.Fatalf("step 5 fetch %v, want 10 (wB's shard not re-mapped to wA)", got)
	}
}

// TestRunJobKillRestart is the in-test chaos scenario: a 40-step job with a
// daemon killed and restarted mid-run must complete with OnStep values
// identical to an undisturbed run — §3's recovery contract, bit for bit.
func TestRunJobKillRestart(t *testing.T) {
	const steps, limit = 40, 3

	// Baseline: undisturbed run.
	baseline := make(map[uint64]float64)
	{
		_, addrs := startWorkers(t, 2)
		fleet, err := Dial(addrs...)
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		spec := counterSpec(limit)
		spec.OnStep = func(step uint64, vals []*tensor.Tensor) error {
			baseline[step] = vals[0].ScalarValue()
			return nil
		}
		if _, err := RunJob(context.Background(), fleet, spec, JobOptions{
			Steps: steps,
			TCP:   TCPOptions{CheckpointDir: t.TempDir(), CheckpointEvery: 10},
		}); err != nil {
			t.Fatalf("baseline run: %v", err)
		}
	}

	// Chaos run: kill wB mid-run, restart it shortly after.
	workers, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	var mu sync.Mutex
	got := make(map[uint64]float64)
	rebuilds := 0
	killed := make(chan struct{})
	spec := counterSpec(limit)
	spec.OnStep = func(step uint64, vals []*tensor.Tensor) error {
		mu.Lock()
		defer mu.Unlock()
		v := vals[0].ScalarValue()
		if prev, seen := got[step]; seen && prev != v {
			t.Errorf("step %d replayed with %v, first saw %v", step, v, prev)
		}
		got[step] = v
		if step == steps/2 {
			select {
			case <-killed:
			default:
				close(killed)
			}
		}
		return nil
	}
	spec.OnRebuild = func(ws []string, from uint64) {
		mu.Lock()
		rebuilds++
		mu.Unlock()
		t.Logf("rebuilt over %v from step %d", ws, from)
	}

	// restarted closes once wB is back (or failed to come back): the job can
	// finish on wA alone first, and the cleanup that closes workers must not
	// run while this goroutine still writes workers[1].
	restarted := make(chan struct{})
	go func() {
		defer close(restarted)
		<-killed
		ctrlAddr := workers[1].Addr()
		workers[1].Close()
		time.Sleep(300 * time.Millisecond) // dcfvet:allow testsleep=simulated worker downtime
		w2, err := cluster.NewWorker("wB", ctrlAddr, "127.0.0.1:0")
		if err != nil {
			t.Errorf("restart wB: %v", err)
			return
		}
		mu.Lock()
		workers[1] = w2
		mu.Unlock()
	}()

	final, err := RunJob(context.Background(), fleet, spec, JobOptions{
		Steps:          steps,
		TCP:            TCPOptions{CheckpointDir: t.TempDir(), CheckpointEvery: 10},
		MaxStepRetries: 8,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if got := final[0].ScalarValue(); got != float64(steps*limit) {
		t.Fatalf("final fetch %v, want %v", got, steps*limit)
	}
	<-restarted // the job ran past step steps/2, so wB was killed
	mu.Lock()
	defer mu.Unlock()
	for step, want := range baseline {
		if got[step] != want {
			t.Fatalf("step %d: chaos run fetched %v, baseline %v (recovery not bit-identical)", step, got[step], want)
		}
	}
	if rebuilds == 0 {
		t.Fatal("the kill never triggered a rebuild — chaos scenario did not exercise recovery")
	}
}
