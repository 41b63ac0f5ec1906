package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestChromeTraceEmptyIsArray(t *testing.T) {
	js, err := New().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"traceEvents": []`) {
		t.Fatalf("empty trace must serialize as [], got:\n%s", js)
	}
	js, err = MergeChrome(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"traceEvents": []`) {
		t.Fatalf("empty merge must serialize as [], got:\n%s", js)
	}
}

func TestOverlapTimeCoalesced(t *testing.T) {
	// Two overlapping events on stream a must not double-count overlap
	// against b: a = [0,10) ∪ [5,15) → cover [0,15); b = [8,12).
	tr := New()
	base := tr.Base()
	tr.Record("a", "k1", base, base.Add(10*time.Millisecond))
	tr.Record("a", "k2", base.Add(5*time.Millisecond), base.Add(15*time.Millisecond))
	tr.Record("b", "k3", base.Add(8*time.Millisecond), base.Add(12*time.Millisecond))
	if ov := tr.OverlapTime("a", "b"); ov != 4*time.Millisecond {
		t.Fatalf("overlap %v, want 4ms", ov)
	}
}

func TestRecordSpanMetadata(t *testing.T) {
	tr := New()
	start := tr.Base().Add(time.Millisecond)
	tr.RecordSpan(Event{
		Stream: "cpu/spawn", Name: "mm", Op: "MatMul", Frame: "/while:3",
		Iter: 3, Queue: 50 * time.Microsecond,
	}, start, start.Add(2*time.Millisecond))
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events %d", len(evs))
	}
	e := evs[0]
	if e.Start != time.Millisecond || e.End != 3*time.Millisecond {
		t.Fatalf("span interval [%v, %v]", e.Start, e.End)
	}
	if e.Op != "MatMul" || e.Frame != "/while:3" || e.Iter != 3 || e.Queue != 50*time.Microsecond {
		t.Fatalf("metadata lost: %+v", e)
	}
	js, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"op": "MatMul"`, `"frame": "/while:3"`, `"queue_ns": 50000`, `"tid": "cpu/spawn"`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("chrome args missing %s:\n%s", want, js)
		}
	}
}

// chromeFile is the decoded trace-event JSON shape the tests inspect.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  string         `json:"tid"`
		ID   string         `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestMergeChromeAlignsAndLinksFlows(t *testing.T) {
	// Two workers whose tracers started 5ms apart; worker A sends, worker
	// B receives. The merged file must shift B onto A's clock, name both
	// processes, and emit one matched s/f flow pair.
	flow := FlowID("step7|wA->wB", "/while:1")
	a := Part{PID: 1, Name: "wA", Base: 1_000_000_000, Events: []Event{
		{Stream: "cpu/inline", Name: "send", Op: "Send",
			Start: 2 * time.Millisecond, End: 3 * time.Millisecond, Flow: flow, IsSend: true},
	}}
	b := Part{PID: 2, Name: "wB", Base: 1_005_000_000, Events: []Event{
		{Stream: "cpu/spawn", Name: "recv", Op: "Recv",
			Start: 1 * time.Millisecond, End: 4 * time.Millisecond, Flow: flow},
	}}
	js, err := MergeChrome([]Part{a, b})
	if err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(js, &f); err != nil {
		t.Fatalf("invalid chrome JSON: %v\n%s", err, js)
	}
	procs := map[int]string{}
	var sends, finishes int
	var sendID, finishID string
	var recvTS float64
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			procs[e.PID] = e.Args["name"].(string)
		case "s":
			sends++
			sendID = e.ID
		case "f":
			finishes++
			finishID = e.ID
		case "X":
			if e.Name == "recv" {
				recvTS = e.TS
			}
		}
	}
	if procs[1] != "wA" || procs[2] != "wB" {
		t.Fatalf("process names %v", procs)
	}
	if sends != 1 || finishes != 1 {
		t.Fatalf("flow events: %d starts, %d finishes (want 1 each)", sends, finishes)
	}
	if sendID == "" || sendID != finishID {
		t.Fatalf("flow ids differ: s=%q f=%q", sendID, finishID)
	}
	// B's base is 5ms later than A's, and its recv span starts 1ms into
	// B's own clock → 6ms = 6000µs on the merged timeline.
	if recvTS != 6000 {
		t.Fatalf("recv ts %v µs, want 6000 (clock alignment broken)", recvTS)
	}
}

func TestFlowID(t *testing.T) {
	if FlowID("k", "t") == 0 {
		t.Fatal("flow id must be nonzero")
	}
	if FlowID("k", "t") != FlowID("k", "t") {
		t.Fatal("flow id not deterministic")
	}
	if FlowID("ab", "c") == FlowID("a", "bc") {
		t.Fatal("flow id must separate key and tag")
	}
}
