package distrib

import (
	"sort"
	"time"
)

// A worker that dies leaves the fleet's live set: the job layer (RunJob)
// rebuilds clusters over the workers that answer a liveness probe, so a
// lost worker never needs fine-grained graph surgery — the paper's
// coarse-grained model, "roll back to the last checkpoint and rebuild".

// probeTimeout bounds the liveness probe's redial. Deliberately much
// shorter than the control handshake timeout: probes run on the recovery
// path, where waiting the full handshake window on a daemon that is truly
// dead just prolongs the outage.
const probeTimeout = 1500 * time.Millisecond

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
