package distrib

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
)

// Elastic membership: a Fleet is not a fixed set. Daemons join (Add) and
// leave (Remove, or just die) while jobs run; the job layer (RunJob)
// rebuilds clusters over the live worker set at checkpoint boundaries, so
// a membership change never needs fine-grained graph surgery — the paper's
// coarse-grained model extends naturally from failure recovery to elastic
// scaling, because both are "roll back to the last checkpoint and rebuild".

// probeTimeout bounds the liveness probe's redial. Deliberately much
// shorter than the control handshake timeout: probes run on the recovery
// path, where waiting the full handshake window on a daemon that is truly
// dead just prolongs the outage.
const probeTimeout = 1500 * time.Millisecond

// Generation returns the membership generation: it increments on every
// Add/Remove. Job runners snapshot it and compare at checkpoint boundaries
// to notice joins without polling every worker every step.
func (f *Fleet) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.generation
}

// Add dials a new worker daemon and admits it to the fleet. The new
// worker's name must be unique. Existing clusters are unaffected (they run
// on the worker set they were partitioned over); the join takes effect when
// a job runner next rebuilds over the fleet.
func (f *Fleet) Add(addr string) error {
	c, err := cluster.DialWorker(addr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		c.Close()
		return fmt.Errorf("distrib: fleet closed")
	}
	if _, dup := f.workers[c.Name()]; dup {
		c.Close()
		return fmt.Errorf("distrib: fleet already has a worker named %q", c.Name())
	}
	f.workers[c.Name()] = &fleetWorker{addr: addr, client: c, epoch: 1}
	f.generation++
	return nil
}

// Remove retires a worker from the fleet and closes its control
// connection. Clusters still registered on it keep their registrations
// until released; steps that route to it afterwards fail (and the job
// layer rebuilds without it).
func (f *Fleet) Remove(name string) error {
	f.mu.Lock()
	w, ok := f.workers[name]
	if ok {
		delete(f.workers, name)
		f.generation++
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("distrib: unknown worker %q", name)
	}
	w.mu.Lock()
	w.client.Close()
	w.mu.Unlock()
	return nil
}

// Live reports whether the named worker is reachable right now. A live
// control connection answers immediately; otherwise one short redial is
// attempted (and kept, on success — the probe doubles as the reconnect).
// Probing a dead daemon costs at most probeTimeout.
func (f *Fleet) Live(name string) bool {
	f.mu.Lock()
	w := f.workers[name]
	closed := f.closed
	f.mu.Unlock()
	if w == nil || closed {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.client.Alive() || f.redial(w, name, probeTimeout) == nil
}

// LiveWorkers returns the sorted names of every worker that answers a
// liveness probe — the worker set a job rebuild partitions over.
func (f *Fleet) LiveWorkers() []string {
	var live []string
	for _, name := range f.Workers() {
		if f.Live(name) {
			live = append(live, name)
		}
	}
	sort.Strings(live)
	return live
}
