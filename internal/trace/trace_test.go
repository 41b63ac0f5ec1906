package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func recordSeq(tr *Tracer) time.Time {
	base := time.Now()
	tr.Record("compute", "matmul", base, base.Add(10*time.Millisecond))
	tr.Record("d2h", "swap_out", base.Add(2*time.Millisecond), base.Add(6*time.Millisecond))
	tr.Record("compute", "tanh", base.Add(12*time.Millisecond), base.Add(14*time.Millisecond))
	return base
}

func TestEventsSortedAndStreams(t *testing.T) {
	tr := New()
	recordSeq(tr)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("events %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatal("not sorted")
		}
	}
	streams := tr.Streams()
	if len(streams) != 2 || streams[0] != "compute" || streams[1] != "d2h" {
		t.Fatalf("streams %v", streams)
	}
}

func TestBusyTime(t *testing.T) {
	tr := New()
	recordSeq(tr)
	busy := tr.BusyTime()
	if busy["compute"] != 12*time.Millisecond {
		t.Fatalf("compute busy %v", busy["compute"])
	}
	if busy["d2h"] != 4*time.Millisecond {
		t.Fatalf("d2h busy %v", busy["d2h"])
	}
}

func TestOverlapTime(t *testing.T) {
	tr := New()
	recordSeq(tr)
	// d2h [2,6) overlaps compute [0,10) fully: 4ms.
	if ov := tr.OverlapTime("compute", "d2h"); ov != 4*time.Millisecond {
		t.Fatalf("overlap %v", ov)
	}
	if ov := tr.OverlapTime("compute", "nothing"); ov != 0 {
		t.Fatalf("phantom overlap %v", ov)
	}
}

func TestASCIITimeline(t *testing.T) {
	tr := New()
	recordSeq(tr)
	out := tr.ASCII(40)
	if !strings.Contains(out, "compute") || !strings.Contains(out, "d2h") {
		t.Fatalf("missing rows: %s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("no busy cells")
	}
	empty := New()
	if !strings.Contains(empty.ASCII(10), "no events") {
		t.Fatal("empty tracer rendering")
	}
}

func TestChromeTraceJSON(t *testing.T) {
	tr := New()
	recordSeq(tr)
	js, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatal(err)
	}
	evs, ok := decoded["traceEvents"].([]any)
	if !ok || len(evs) != 3 {
		t.Fatalf("traceEvents: %v", decoded)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				now := time.Now()
				tr.Record("s", "k", now, now.Add(time.Microsecond))
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if len(tr.Events()) != 800 {
		t.Fatalf("events %d", len(tr.Events()))
	}
}
