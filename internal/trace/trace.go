// Package trace records per-stream execution timelines: the
// instrumentation behind Figure 13 of the paper (compute kernels
// overlapping D2H/H2D copy kernels) and, since the observability layer,
// the per-step span recorder behind exec.Binding.Trace and the distributed
// trace assembly of the TCP cluster runtime, whose workers return a traced
// step's spans on the step's reply.
//
// Events can be rendered as an ASCII timeline, exported as Chrome
// trace-event JSON (ChromeTrace), or merged across processes into one
// multi-worker timeline (MergeChrome) with flow arrows linking Send→Recv
// pairs across partitions. See README.md for the span model and how to
// open a trace in Perfetto.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one execution span on one stream. Plain kernel events (Record)
// fill only Stream/Name/Start/End; executor node spans (RecordSpan) carry
// the full metadata. All fields are exported and gob-encodable: events
// travel over the cluster control plane in a traced step's StepResp.
type Event struct {
	Stream string        // timeline row: device/stream, e.g. "wA/cpu/spawn"
	Name   string        // node or kernel name
	Start  time.Duration // since tracer start
	End    time.Duration
	Op     string        // graph op, e.g. "MatMul" (spans only)
	Frame  string        // frame tag incl. iteration path, e.g. "/while:3"
	Iter   int           // iteration within the innermost frame
	Queue  time.Duration // dispatch-queue wait before the span started
	Flow   uint64        // nonzero: Send/Recv rendezvous correlation id
	IsSend bool          // true on the producing (Send) side of a flow
}

// Tracer collects events. The zero value is unusable; use New.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// New returns a tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// Base returns the tracer's epoch — the wall-clock instant all event
// offsets are relative to. MergeChrome uses it to align tracers started
// on different machines' clocks.
func (t *Tracer) Base() time.Time { return t.start }

// Record adds a plain kernel event for the given wall-clock interval.
func (t *Tracer) Record(stream, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, Event{
		Stream: stream,
		Name:   name,
		Start:  start.Sub(t.start),
		End:    end.Sub(t.start),
	})
}

// RecordSpan adds a full node-execution span: ev's metadata fields are
// kept as given, Start/End are computed from the wall-clock interval.
func (t *Tracer) RecordSpan(ev Event, start, end time.Time) {
	ev.Start = start.Sub(t.start)
	ev.End = end.Sub(t.start)
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// snapshot copies the events without sorting (Streams, BusyTime, and
// OverlapTime don't need start order; only Events promises it).
func (t *Tracer) snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Events returns a copy of all recorded events sorted by start time.
func (t *Tracer) Events() []Event {
	out := t.snapshot()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Streams returns the distinct stream names, sorted.
func (t *Tracer) Streams() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range t.snapshot() {
		if !seen[e.Stream] {
			seen[e.Stream] = true
			out = append(out, e.Stream)
		}
	}
	sort.Strings(out)
	return out
}

// BusyTime returns total busy duration per stream.
func (t *Tracer) BusyTime() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, e := range t.snapshot() {
		out[e.Stream] += e.End - e.Start
	}
	return out
}

// interval is a half-open busy span used by the overlap sweep.
type interval struct{ lo, hi time.Duration }

// union sorts and coalesces intervals in place, returning the merged
// disjoint cover.
func union(iv []interval) []interval {
	if len(iv) == 0 {
		return iv
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x.lo <= last.hi {
			if x.hi > last.hi {
				last.hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// OverlapTime returns the total time during which both streams were busy
// simultaneously — the quantity Figure 13 visualizes (compute/copy
// overlap). Each stream's events are first coalesced into a disjoint
// cover, then the two covers are intersected with one linear sweep
// (O(n log n) in the stream's event count, not O(n²) pairwise).
func (t *Tracer) OverlapTime(streamA, streamB string) time.Duration {
	var as, bs []interval
	for _, e := range t.snapshot() {
		switch e.Stream {
		case streamA:
			as = append(as, interval{e.Start, e.End})
		case streamB:
			bs = append(bs, interval{e.Start, e.End})
		}
	}
	as, bs = union(as), union(bs)
	var total time.Duration
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		lo := max(as[i].lo, bs[j].lo)
		hi := min(as[i].hi, bs[j].hi)
		if hi > lo {
			total += hi - lo
		}
		if as[i].hi < bs[j].hi {
			i++
		} else {
			j++
		}
	}
	return total
}

// ASCII renders the timeline: one row per stream, columns are time buckets;
// a filled cell means the stream was busy during that bucket. Mirrors the
// visual structure of the paper's Figure 13.
func (t *Tracer) ASCII(width int) string {
	evs := t.Events()
	if len(evs) == 0 {
		return "(no events)\n"
	}
	var maxEnd time.Duration
	for _, e := range evs {
		if e.End > maxEnd {
			maxEnd = e.End
		}
	}
	if maxEnd == 0 {
		maxEnd = 1
	}
	bucket := maxEnd / time.Duration(width)
	if bucket == 0 {
		bucket = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %v total, one column = %v\n", maxEnd.Round(time.Microsecond), bucket.Round(time.Microsecond))
	for _, s := range t.Streams() {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range evs {
			if e.Stream != s {
				continue
			}
			lo := int(e.Start / bucket)
			hi := int(e.End / bucket)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi && i < width; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&sb, "%-20s |%s|\n", s, row)
	}
	return sb.String()
}

// chromeEvent is the Chrome trace-event JSON form.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  string         `json:"tid"`
	ID   string         `json:"id,omitempty"` // flow-event correlation id
	BP   string         `json:"bp,omitempty"` // "e": bind flow to enclosing slice
	Args map[string]any `json:"args,omitempty"`
}

// usec converts a tracer-relative offset to trace-event microseconds.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanArgs builds the args payload for a node span; plain kernel events
// (no metadata) get none.
func spanArgs(e Event) map[string]any {
	if e.Op == "" && e.Frame == "" && e.Queue == 0 {
		return nil
	}
	args := map[string]any{"op": e.Op, "queue_ns": int64(e.Queue)}
	if e.Frame != "" {
		args["frame"] = e.Frame
		args["iter"] = e.Iter
	}
	return args
}

// appendChrome emits one event's trace-event records: the duration slice,
// plus a flow start/finish record when the event is half of a Send/Recv
// pair. offset shifts the event into the merged timeline's clock.
func appendChrome(evs []chromeEvent, e Event, pid int, offset time.Duration) []chromeEvent {
	start, end := e.Start+offset, e.End+offset
	evs = append(evs, chromeEvent{
		Name: e.Name,
		Cat:  "kernel",
		Ph:   "X",
		TS:   usec(start),
		Dur:  usec(end - start),
		PID:  pid,
		TID:  e.Stream,
		Args: spanArgs(e),
	})
	if e.Flow != 0 {
		// Flow events bind to the enclosing slice (bp "e"); timestamp them
		// mid-span so the binding is unambiguous even for 0-width slices'
		// neighbors.
		mid := usec(start + (end-start)/2)
		ph := "f"
		if e.IsSend {
			ph = "s"
		}
		evs = append(evs, chromeEvent{
			Name: "rendezvous",
			Cat:  "flow",
			Ph:   ph,
			TS:   mid,
			PID:  pid,
			TID:  e.Stream,
			ID:   fmt.Sprintf("%#x", e.Flow),
			BP:   "e",
		})
	}
	return evs
}

// ChromeTrace serializes the events in Chrome trace-event format
// (load in chrome://tracing or Perfetto). An empty tracer yields
// {"traceEvents": []}, never null.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	events := t.Events()
	evs := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		evs = appendChrome(evs, e, 1, 0)
	}
	return json.MarshalIndent(map[string]any{"traceEvents": evs}, "", " ")
}

// Part is one process's contribution to a merged distributed trace:
// typically one worker daemon's per-step spans, with Base carrying the
// worker tracer's epoch (UnixNano) so differently-started clocks align.
type Part struct {
	PID    int    // trace-event process id (unique per part)
	Name   string // process label shown by Perfetto, e.g. the worker name
	Base   int64  // tracer epoch, UnixNano (Tracer.Base().UnixNano())
	Events []Event
}

// MergeChrome assembles driver + N worker timelines into one Chrome
// trace-event file: pid = worker (with a process_name metadata record per
// part), tid = device/stream, and flow events linking each Send span to
// its Recv across partitions. Every part's offsets are shifted by its
// Base relative to the earliest part, so spans from independently started
// tracers land on one timeline. Empty input yields {"traceEvents": []}.
func MergeChrome(parts []Part) ([]byte, error) {
	minBase := int64(0)
	for i, p := range parts {
		if i == 0 || p.Base < minBase {
			minBase = p.Base
		}
	}
	n := 0
	for _, p := range parts {
		n += len(p.Events) + 1
	}
	evs := make([]chromeEvent, 0, n)
	for _, p := range parts {
		evs = append(evs, chromeEvent{
			Name: "process_name",
			Cat:  "__metadata",
			Ph:   "M",
			PID:  p.PID,
			TID:  "",
			Args: map[string]any{"name": p.Name},
		})
		offset := time.Duration(p.Base - minBase)
		for _, e := range p.Events {
			evs = appendChrome(evs, e, p.PID, offset)
		}
	}
	return json.MarshalIndent(map[string]any{"traceEvents": evs}, "", " ")
}

// FlowID derives the Send/Recv correlation id from the pair's rendezvous
// key and frame tag (FNV-1a). Both sides of a hop compute the same key
// and tag, so the ids match across partitions without coordination.
func FlowID(key, tag string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= 0xff // separator: ("a","bc") must not collide with ("ab","c")
	h *= prime64
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= prime64
	}
	if h == 0 {
		h = 1 // 0 means "no flow"
	}
	return h
}
