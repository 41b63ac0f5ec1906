package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is what the traced run records, in memory, around every operation
// and every outside call the benchmark makes on its behalf. Spans of one
// operation share OpID; Parent is the index of the causing span (-1 for an
// operation's root).
type span struct {
	Name    string
	StartNs int64 // since the recorder's epoch
	EndNs   int64
	Parent  int
	OpID    int
	Caller  int
}

// recorder collects spans from the load goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one span and returns its index for use as a Parent.
func (r *recorder) add(name string, start, end time.Time, parent, opID, caller int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
		Parent: parent, OpID: opID, Caller: caller,
	})
	return len(r.spans) - 1
}

// fold places a program step's own spans under parent. Program spans carry
// times relative to the step's first span; the step began at callStart.
func (r *recorder) fold(ps []progSpan, callStart time.Time, parent, opID, caller int) {
	base := callStart.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range ps {
		r.spans = append(r.spans, span{
			Name: p.Op + ":" + p.Name, StartNs: base + p.StartNs, EndNs: base + p.EndNs,
			Parent: parent, OpID: opID, Caller: caller,
		})
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load in
// Perfetto): one row per caller, args carrying op_id and parent.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", TS: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			PID: 1, TID: s.Caller, Args: map[string]int{"op_id": s.OpID, "parent": s.Parent},
		}
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progSpan is one node execution the program itself traced, normalised
// from either of its two public trace forms.
type progSpan struct {
	Name, Op string
	StartNs  int64 // relative to the step's earliest span
	EndNs    int64
	Flow     string // nonzero: Send/Recv correlation id
	IsSend   bool
}

// tracerSpans converts a RunMetadata.StepTrace.
func tracerSpans(tr *trace.Tracer) []progSpan {
	if tr == nil {
		return nil
	}
	evs := tr.Events()
	out := make([]progSpan, len(evs))
	for i, e := range evs {
		out[i] = progSpan{Name: e.Name, Op: e.Op, StartNs: e.Start.Nanoseconds(), EndNs: e.End.Nanoseconds()}
		if e.Flow != 0 {
			out[i].Flow, out[i].IsSend = fmt.Sprint(e.Flow), e.IsSend
		}
	}
	return rebase(out)
}

// chromeSpans converts the merged Chrome trace-event JSON that
// TCPCluster.RunTraced returns. A flow record ("s"/"f") follows the slice
// it binds to, which is how Send and Recv spans get their correlation id.
func chromeSpans(js []byte) ([]progSpan, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			ID   string  `json:"id"`
			Args struct {
				Op string `json:"op"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		return nil, fmt.Errorf("parse cluster trace: %w", err)
	}
	var out []progSpan
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			out = append(out, progSpan{
				Name: e.Name, Op: e.Args.Op,
				StartNs: int64(e.TS * 1e3), EndNs: int64((e.TS + e.Dur) * 1e3),
			})
		case "s", "f":
			if len(out) > 0 {
				out[len(out)-1].Flow, out[len(out)-1].IsSend = e.ID, e.Ph == "s"
			}
		}
	}
	return rebase(out), nil
}

// rebase shifts spans so the earliest starts at zero.
func rebase(ps []progSpan) []progSpan {
	if len(ps) == 0 {
		return ps
	}
	lo := ps[0].StartNs
	for _, p := range ps {
		lo = min(lo, p.StartNs)
	}
	for i := range ps {
		ps[i].StartNs -= lo
		ps[i].EndNs -= lo
	}
	return ps
}

// stepProfile is what one program-traced step says about its layers.
type stepProfile struct {
	Nodes    int     // node executions (must repeat exactly)
	WallNs   float64 // first span start to last span end
	KernelNs float64 // Σ spans of ops the executor dispatches to a registered kernel
	WireNs   float64 // time some Send→Recv flow was in progress
}

// executorOps are the ops the executor implements itself (control flow and
// rendezvous); every other op runs a registered kernel.
var executorOps = map[string]bool{
	"Merge": true, "Switch": true, "Enter": true, "Exit": true, "NextIteration": true,
	"Send": true, "Recv": true,
}

// profileStep reduces a step's program spans. Wire time is the union of
// the intervals from each Send span's start to its Recv span's end: encode,
// socket, decode and delivery, counted once where flows overlap.
func profileStep(ps []progSpan) stepProfile {
	p := stepProfile{Nodes: len(ps)}
	type iv struct{ lo, hi int64 }
	sends, recvs := map[string]int64{}, map[string]int64{}
	var hi int64
	for _, s := range ps {
		hi = max(hi, s.EndNs)
		switch {
		case s.Flow != "" && s.IsSend:
			sends[s.Flow] = s.StartNs
		case s.Flow != "":
			recvs[s.Flow] = s.EndNs
		case !executorOps[s.Op]:
			p.KernelNs += float64(s.EndNs - s.StartNs)
		}
	}
	p.WallNs = float64(hi)
	var flows []iv
	for id, lo := range sends {
		if end, ok := recvs[id]; ok && end > lo {
			flows = append(flows, iv{lo, end})
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].lo < flows[j].lo })
	var covered int64 = -1
	for _, f := range flows {
		lo := max(f.lo, covered)
		if f.hi > lo {
			p.WireNs += float64(f.hi - lo)
			covered = f.hi
		}
	}
	return p
}
