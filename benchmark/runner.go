package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Fixed shape of a run. The run length is the same whatever the program's
// speed: six segments of seconds/6 after a discarded warm-up.
const (
	segmentsPerRun = 6
	// setupRuns cold set-ups per run; the first setupDiscard warm the
	// process (page faults, heap growth) and are dropped from the median.
	setupRuns    = 31
	setupDiscard = 3
	// minOpsPerSegment keeps ≥ 10 samples beyond each segment's p95.
	minOpsPerSegment = 200
	// tracedProgSpanOps is how many program-traced operations have their
	// node spans folded into the trace file; every traced operation
	// contributes to the step profile regardless.
	tracedProgSpanOps = 1
)

// warmupSeconds is the discarded warm-up before the first segment.
func warmupSeconds(seconds float64) float64 { return min(3, seconds/10) }

// counts tallies operations over the measured segments.
type counts struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`         // returned and passed the oracle
	Failed    int `json:"failed"`     // error or wrong answer
	OverLimit int `json:"over_limit"` // ok, but slower than the workload's limit
}

// load drives one instance with the workload's closed-loop callers.
type load struct {
	w    *workload
	inst *instance
	rec  *recorder // nil when untraced
	next atomic.Int64
	// recorded counts operations since rec was set; the first and then
	// every 50th goes through the program's own tracing.
	recorded atomic.Int64

	// counts tallies every operation of the measured segments so far.
	counts counts

	mu       sync.Mutex
	firstErr error
	profiles []stepProfile
	folded   int
}

// one performs operation i for caller c and returns its sample.
func (l *load) one(c, i int) sample {
	traced := l.rec != nil && l.inst.callTraced != nil && (l.recorded.Add(1)-1)%opsPerTracedCall == 0
	var res any
	var prog []progSpan
	var err error
	t0 := time.Now()
	if traced {
		res, prog, err = l.inst.callTraced(c, i)
	} else {
		res, err = l.inst.call(c, i)
	}
	t1 := time.Now()
	if err == nil {
		err = l.inst.check(i, res)
	}
	if err != nil {
		l.mu.Lock()
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("operation %d: %w", i, err)
		}
		l.mu.Unlock()
	}
	if l.rec != nil {
		t2 := time.Now()
		root := l.rec.add(l.w.Name+".op", t0, t2, -1, i, c)
		call := l.rec.add("call", t0, t1, root, i, c)
		l.rec.add("oracle", t1, t2, root, i, c)
		if traced && err == nil {
			l.mu.Lock()
			l.profiles = append(l.profiles, profileStep(prog))
			fold := l.folded < tracedProgSpanOps
			if fold {
				l.folded++
			}
			l.mu.Unlock()
			if fold {
				l.rec.fold(prog, t0, call, i, c)
			}
		}
	}
	return sample{latMs: float64(t1.Sub(t0).Nanoseconds()) / 1e6, ok: err == nil}
}

// phase runs every caller's closed loop for d and returns the samples and
// the seconds from start until the last caller's last operation ended.
func (l *load) phase(d time.Duration) ([]sample, float64) {
	runtime.GC()
	per := make([][]sample, l.w.Callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], l.one(c, int(l.next.Add(1))))
			}
		}()
	}
	wg.Wait()
	seconds := time.Since(start).Seconds()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, seconds
}

// segments measures n segments of d each and tallies their operations.
func (l *load) segments(n int, d time.Duration) []segment {
	segs := make([]segment, n)
	cn := &l.counts
	for k := range segs {
		samples, seconds := l.phase(d)
		segs[k] = summarizeSegment(samples, seconds, l.w.UnitsPerOp)
		for _, s := range samples {
			cn.Attempted++
			switch {
			case !s.ok:
				cn.Failed++
			case s.latMs > l.w.LimitMs:
				cn.OK++
				cn.OverLimit++
			default:
				cn.OK++
			}
		}
	}
	return segs
}

// okUnderLimitShare is operations that returned, passed the oracle and
// met the limit, over operations attempted.
func (c counts) okUnderLimitShare() float64 {
	if c.Attempted == 0 {
		return 0
	}
	return float64(c.OK-c.OverLimit) / float64(c.Attempted)
}

// coldSetups brings the system up n times from nothing, each to its first
// verified operation, and returns the wall seconds of each and the last
// instance, still running.
func coldSetups(start func() (*instance, error), n int) ([]float64, *instance, error) {
	secs := make([]float64, 0, n)
	var inst *instance
	for k := 0; k < n; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = start(); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, inst, nil
}

// spinSink keeps the compiler from deleting hostSpeed's loop.
var spinSink uint64

// hostSpeedMs times a fixed pure-Go integer loop: the host's speed as the
// benchmark's own process sees it, independent of the program under test.
// The median of 31 short spins, because this host flips between speed modes
// within a tenth of a second and five longer spins landed in one mode or
// the other by chance.
func hostSpeedMs() float64 {
	ms := make([]float64, 31)
	for k := range ms {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ms[k] = float64(time.Since(t0).Nanoseconds()) / 1e6
		spinSink += x
	}
	return median(ms)
}
