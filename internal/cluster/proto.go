package cluster

import (
	"strconv"
	"strings"

	"repro/internal/trace"
)

// The control protocol is a stream of gob-encoded envelopes on one TCP
// connection per (driver, worker) pair: requests flow driver -> worker in
// Envelope, responses worker -> driver in RespEnvelope. Exactly one field of
// an envelope is non-nil. Requests are processed in arrival order; step
// execution itself is asynchronous, so an Abort can overtake a running step,
// and responses may interleave arbitrarily (the driver matches them by
// (graph, step)).

// HelloReq opens a session; the worker answers with its identity.
type HelloReq struct{}

// HelloResp identifies a worker: its name (which rendezvous keys route by)
// and the address of its rendezvous data plane.
type HelloResp struct {
	Worker   string
	DataAddr string
}

// RegisterGraph installs one partitioned graph on a worker: the worker's
// closed node set, its per-device partitions (with their fetches), and the
// data-plane addresses of every peer worker. Plans are compiled once at
// registration and cached; every step then takes the dense executor fast
// path. Re-registering a GraphID replaces the previous registration (the
// reconnect path after a worker restart).
type RegisterGraph struct {
	GraphID uint64
	Nodes   []WireNode
	Parts   []WirePartition
	// Peers maps every participating worker to its rendezvous address.
	Peers map[string]string
}

// RegResp acknowledges a registration.
type RegResp struct {
	GraphID uint64
	Err     string
}

// StepReq launches one step of a registered graph.
type StepReq struct {
	GraphID uint64
	Step    uint64
	Feeds   map[string]*WireTensor
	// ReleaseThrough tells the worker that every step <= this value has
	// completed cluster-wide: their rendezvous scopes are dropped and late
	// stragglers addressed to them are discarded. It rides on the next
	// step instead of its own round trip.
	ReleaseThrough uint64
	// Trace asks the worker to record a per-node execution trace of this
	// step and return it on the step's StepResp; the driver merges the
	// per-worker timelines into one Chrome trace file.
	Trace bool
}

// StepResp reports one step's outcome: the worker's fetch values in
// registration order (concatenated over its partitions), or the first
// partition error — the step's only reply. Worker names the worker that
// answered; the driver's Client fills it in from the hello handshake as it
// delivers the reply, so a driver fanning several workers' replies into one
// channel can tell them apart. A traced step (StepReq.Trace) also carries
// the worker's spans and their clock base: the worker-local wall-clock
// origin of the spans (UnixNano), which the merger aligns onto the earliest
// base.
type StepResp struct {
	GraphID uint64
	Step    uint64
	Worker  string
	Vals    []*WireTensor
	Err     string
	Base    int64
	Spans   []trace.Event
}

// AbortReq propagates driver-side cancellation (or a sibling worker's
// failure) to a running step: the worker cancels the step's context and
// aborts its rendezvous scope so blocked Recvs drain — the remote mirror of
// rendezvous.Local.Abort. The outstanding StepResp carries the error.
type AbortReq struct {
	GraphID uint64
	Step    uint64
	Reason  string
}

// ReleaseReq discards a graph registration and every scope it still holds.
type ReleaseReq struct {
	GraphID uint64
}

// VarSnapshot is one session variable in transportable form — the unit of
// the checkpoint/restore protocol.
type VarSnapshot struct {
	Name string
	T    *WireTensor
}

// CheckpointReq asks the worker for a snapshot of every session variable
// the registered graph holds. The driver only sends it when the step
// window is quiesced (no steps in flight anywhere in the cluster), so the
// snapshot is a consistent cut at a step boundary — the paper's §3
// coarse-grained model. The worker refuses the request if it still has
// steps of the graph in flight (a protocol violation, not a race to
// tolerate silently).
type CheckpointReq struct {
	GraphID uint64
	// Step is the step boundary being captured; echoed in the response
	// and recorded by the driver in the checkpoint manifest.
	Step uint64
}

// CheckpointResp carries the worker's variable shard (sorted by name).
type CheckpointResp struct {
	GraphID uint64
	Step    uint64
	Vars    []VarSnapshot
	Err     string
}

// RestoreReq installs variable values into the registered graph's session
// container — the second half of resume-from-checkpoint, and also how a
// driver seeds initial variable values. Like CheckpointReq it is only
// legal while the graph is quiesced.
type RestoreReq struct {
	GraphID uint64
	Vars    []VarSnapshot
}

// RestoreResp acknowledges a restore.
type RestoreResp struct {
	GraphID uint64
	Err     string
}

// Envelope is one driver -> worker request.
type Envelope struct {
	Hello   *HelloReq
	Reg     *RegisterGraph
	Step    *StepReq
	Abort   *AbortReq
	Release *ReleaseReq
	Ckpt    *CheckpointReq
	Restore *RestoreReq
}

// RespEnvelope is one worker -> driver response.
type RespEnvelope struct {
	Hello   *HelloResp
	Reg     *RegResp
	Step    *StepResp
	Ckpt    *CheckpointResp
	Restore *RestoreResp
}

// ScopeName is the rendezvous scope of one (graph, step): the per-step
// private key space shared by every worker running that step.
func ScopeName(graphID, step uint64) string {
	return "g" + strconv.FormatUint(graphID, 10) + ".s" + strconv.FormatUint(step, 10)
}

// ParseScope inverts ScopeName; ok is false for scopes it did not produce.
func ParseScope(scope string) (graphID, step uint64, ok bool) {
	if !strings.HasPrefix(scope, "g") {
		return 0, 0, false
	}
	rest := scope[1:]
	dot := strings.Index(rest, ".s")
	if dot < 0 {
		return 0, 0, false
	}
	g, err := strconv.ParseUint(rest[:dot], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	s, err := strconv.ParseUint(rest[dot+2:], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return g, s, true
}

// wrapErr renders an error for the wire ("" for nil).
func wrapErr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
