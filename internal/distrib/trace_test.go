package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/tensor"
)

// chromeEvent is the subset of the Chrome trace-event schema the merged
// trace must populate.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	PID  int    `json:"pid"`
	ID   string `json:"id"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

// TestRunTracedMergesWorkers is the distributed-tracing acceptance test: a
// traced step over a two-worker partitioned while-loop must come back as
// one Chrome trace with execution spans from every worker on its own
// process track, and with cross-worker Send→Recv flow events whose ids
// pair up across processes.
func TestRunTracedMergesWorkers(t *testing.T) {
	_, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	b, outs := cluster.BuildHopLoop([]string{"wA", "wB"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	feeds := map[string]*tensor.Tensor{"limit": tensor.Scalar(4)}
	if _, err := tc.Run(feeds); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	vals, js, err := tc.RunTraced(context.Background(), feeds)
	if err != nil {
		t.Fatalf("RunTraced: %v", err)
	}
	if got := vals[0].ScalarValue(); got != 4 {
		t.Fatalf("traced step result %v, want 4", got)
	}

	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}

	spansByPID := map[int]int{}
	procNames := map[int]string{}
	sends := map[string]int{} // flow id -> pid of the "s" event
	recvs := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spansByPID[e.PID]++
		case "M":
			if e.Name == "process_name" {
				procNames[e.PID] = e.Args.Name
			}
		case "s":
			sends[e.ID] = e.PID
		case "f":
			recvs[e.ID] = e.PID
		}
	}

	for pid := 1; pid <= 2; pid++ {
		if spansByPID[pid] == 0 {
			t.Errorf("no execution spans for worker pid %d (span counts: %v)", pid, spansByPID)
		}
	}
	names := map[string]bool{}
	for _, n := range procNames {
		names[n] = true
	}
	if !names["wA"] || !names["wB"] {
		t.Errorf("process_name metadata %v, want both wA and wB", procNames)
	}

	// A partitioned hop loop must ship tokens both ways every iteration:
	// demand at least one cross-process matched flow pair.
	matched, cross := 0, 0
	for id, spid := range sends {
		rpid, ok := recvs[id]
		if !ok {
			continue
		}
		matched++
		if rpid != spid {
			cross++
		}
	}
	if matched == 0 {
		t.Errorf("no matched Send→Recv flow pairs (%d sends, %d recvs)", len(sends), len(recvs))
	}
	if cross == 0 {
		t.Errorf("no cross-worker flow pairs: every matched flow stayed on one pid")
	}
}

// TestParallelRunTracedEachGetsItsSpans runs twelve traced steps at once
// on one cluster. Each step's spans come home on that step's own reply, so
// however many traced steps overlap, none can lose its trace to another's. Every merged trace must hold
// spans from both worker pids and a Send→Recv flow pair across them.
func TestParallelRunTracedEachGetsItsSpans(t *testing.T) {
	_, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	b, outs := cluster.BuildHopLoop([]string{"wA", "wB"})
	tc, err := fleet.NewCluster(b, outs, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	const steps = 12
	errs := make(chan error, steps)
	for i := 0; i < steps; i++ {
		go func() {
			feeds := map[string]*tensor.Tensor{"limit": tensor.Scalar(3)}
			vals, js, err := tc.RunTraced(context.Background(), feeds)
			if err == nil && vals[0].ScalarValue() != 3 {
				err = fmt.Errorf("traced step result %v, want 3", vals[0].ScalarValue())
			}
			if err == nil {
				err = checkTwoWorkerTrace(js)
			}
			errs <- err
		}()
	}
	for i := 0; i < steps; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// checkTwoWorkerTrace reports what a merged two-worker trace lacks: spans
// on pid 1 or 2, or a flow whose Send and Recv sit on different pids.
func checkTwoWorkerTrace(js []byte) error {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		return fmt.Errorf("merged trace is not valid JSON: %w", err)
	}
	spans := map[int]int{}
	sends := map[string]int{}
	recvs := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans[e.PID]++
		case "s":
			sends[e.ID] = e.PID
		case "f":
			recvs[e.ID] = e.PID
		}
	}
	if spans[1] == 0 || spans[2] == 0 {
		return fmt.Errorf("want spans from both worker pids, got span counts %v", spans)
	}
	for id, spid := range sends {
		if rpid, ok := recvs[id]; ok && rpid != spid {
			return nil
		}
	}
	return fmt.Errorf("no cross-worker Send→Recv flow pair (%d sends, %d recvs)", len(sends), len(recvs))
}
