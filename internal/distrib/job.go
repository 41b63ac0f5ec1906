package distrib

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// The job layer is the paper's §3 failure model end to end: an iterative
// job runs between distributed checkpoints of its session variables, and
// every failure — a worker crash, a torn connection, an aborted step — is
// handled one way: roll back to the last checkpoint, rebuild the cluster
// over the workers that are alive now, restore, and replay. There is no
// fine-grained recovery inside a step; a partially-run step may have
// mutated variables, so a failed step is never naively retried on the
// same state.

// JobSpec describes an iterative job abstractly enough to survive
// rebuilds: the graph is a function of the live worker set, not a fixed
// artifact, so a job that loses or gains workers re-partitions itself.
type JobSpec struct {
	// Build constructs the graph for a given (sorted, non-empty) worker
	// set. Device placement must only name workers from the slice. Build
	// must be deterministic: the same worker set yields the same graph.
	Build func(workers []string) (*core.Builder, []graph.Output, error)
	// Init seeds the session variables before step 1 (checkpoint zero).
	// Stateful kernels like AssignAdd refuse uninitialized variables, so
	// any variable the graph updates incrementally must appear here.
	Init map[string]*tensor.Tensor
	// Feeds supplies the placeholder feeds for a step (nil for none).
	Feeds func(step uint64) map[string]*tensor.Tensor
	// OnStep observes each completed step's fetch values. Delivery is
	// at-least-once: a rollback replays steps after the checkpoint, and
	// OnStep fires again for each (with identical values — that is the
	// recovery contract the chaos tests assert).
	OnStep func(step uint64, vals []*tensor.Tensor) error
	// OnRebuild, if set, observes every recovery/rebuild: the worker set
	// the job now runs on and the step it resumed from.
	OnRebuild func(workers []string, fromStep uint64)
}

// JobOptions bounds a job run.
type JobOptions struct {
	// Steps is the total number of steps the job runs.
	Steps uint64
	// TCP configures each built cluster. CheckpointDir must be set (the
	// rollback path needs somewhere to roll back to); CheckpointEvery
	// defaults to 50.
	TCP TCPOptions
	// MaxStepRetries caps consecutive rollback attempts before the job
	// fails for good (default 3). The counter resets after any
	// successfully replayed step, so a long job survives many separated
	// failures but not a persistent one.
	MaxStepRetries int
}

// retryBackoff scales the pause before the n-th consecutive rollback:
// attempt n sleeps n*retryBackoff, giving a restarting daemon time to come
// back before the probe writes it off.
const retryBackoff = 250 * time.Millisecond

// Resume builds a cluster for the job over the fleet's live workers and
// restores the most recent checkpoint in opts.CheckpointDir: the graph is
// re-registered (fresh graph id, fresh partitioning over the live set),
// each worker's shard is re-mapped by variable name and pushed, and the
// step counter is positioned so the next step is checkpointStep+1. With no
// checkpoint on disk it returns os.ErrNotExist and the caller starts
// fresh. A manifest whose graph signature does not match the rebuilt
// graph's is refused.
func (f *Fleet) Resume(spec JobSpec, opts TCPOptions) (*TCPCluster, error) {
	if opts.CheckpointDir == "" {
		return nil, fmt.Errorf("distrib: Resume needs TCPOptions.CheckpointDir")
	}
	m, stepDir, err := checkpoint.Latest(opts.CheckpointDir)
	if err != nil {
		return nil, err
	}
	c, err := f.buildJobCluster(spec, opts)
	if err != nil {
		return nil, err
	}
	if c.Sig() != m.Sig {
		c.Close()
		return nil, fmt.Errorf("distrib: checkpoint %s (sig %016x) does not match the graph being resumed (sig %016x)",
			stepDir, m.Sig, c.Sig())
	}
	state, err := checkpoint.LoadState(stepDir, m)
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := c.RestoreState(state); err != nil {
		c.Close()
		return nil, err
	}
	c.SetStep(m.Step)
	return c, nil
}

// buildJobCluster partitions the job's graph over the currently live
// workers and registers it.
func (f *Fleet) buildJobCluster(spec JobSpec, opts TCPOptions) (*TCPCluster, error) {
	workers := f.LiveWorkers()
	if len(workers) == 0 {
		return nil, fmt.Errorf("distrib: no live workers")
	}
	b, fetches, err := spec.Build(workers)
	if err != nil {
		return nil, err
	}
	return f.NewCluster(b, fetches, nil, opts)
}

// startJobCluster resumes from the latest checkpoint if one exists, and
// otherwise starts fresh: build, seed Init, and write checkpoint zero so
// the very first failure already has a rollback target.
func (f *Fleet) startJobCluster(spec JobSpec, opts TCPOptions) (*TCPCluster, error) {
	c, err := f.Resume(spec, opts)
	if err == nil {
		return c, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	c, err = f.buildJobCluster(spec, opts)
	if err != nil {
		return nil, err
	}
	if err := c.RestoreState(spec.Init); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := c.Checkpoint(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// RunJob drives a job to completion with fault tolerance: steps run until
// opts.Steps, checkpoints land every CheckpointEvery steps, and any step
// failure triggers rollback-restore-replay over whatever workers are live.
// RunJob returns the final step's fetch values.
func RunJob(ctx context.Context, f *Fleet, spec JobSpec, opts JobOptions) ([]*tensor.Tensor, error) {
	if opts.TCP.CheckpointDir == "" {
		return nil, fmt.Errorf("distrib: RunJob needs TCPOptions.CheckpointDir")
	}
	if opts.TCP.CheckpointEvery == 0 {
		opts.TCP.CheckpointEvery = 50
	}
	if opts.MaxStepRetries == 0 {
		opts.MaxStepRetries = 3
	}

	c, err := f.startJobCluster(spec, opts.TCP)
	if err != nil {
		return nil, err
	}
	defer func() { c.Close() }()

	// rebuild rolls the job back to the last checkpoint: tear the current
	// cluster down, rebuild over the live worker set, restore, replay.
	rebuild := func() error {
		c.Close()
		fresh, err := f.Resume(spec, opts.TCP)
		if err != nil {
			return err
		}
		c = fresh
		if spec.OnRebuild != nil {
			spec.OnRebuild(append([]string(nil), c.workers...), c.Step())
		}
		return nil
	}

	retries := 0
	var last []*tensor.Tensor
	for c.Step() < opts.Steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		step := c.Step() + 1
		var feeds map[string]*tensor.Tensor
		if spec.Feeds != nil {
			feeds = spec.Feeds(step)
		}
		vals, err := c.RunCtx(ctx, feeds)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			retries++
			if retries > opts.MaxStepRetries {
				return nil, fmt.Errorf("distrib: job failed at step %d after %d rollbacks: %w", step, retries-1, err)
			}
			// Give a crashed-but-restarting daemon a beat to come back;
			// the probe in LiveWorkers writes off whoever is still down.
			time.Sleep(time.Duration(retries) * retryBackoff)
			if rerr := rebuild(); rerr != nil {
				return nil, fmt.Errorf("distrib: rollback after step %d failure: %w (step error: %v)", step, rerr, err)
			}
			continue
		}
		retries = 0
		last = vals
		if spec.OnStep != nil {
			if err := spec.OnStep(step, vals); err != nil {
				return nil, err
			}
		}
	}
	return last, nil
}
