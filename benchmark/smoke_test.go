package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The smoke tests run each in-process workload for one 0.3 s segment with
// its oracle, so a change to an API the benchmark calls fails `go test`
// here and not only in a long benchmark run. serve_http needs the built
// dcfserve binary and is covered by run.sh.
func TestInProcessWorkloadsSmoke(t *testing.T) {
	for _, w := range []*workload{rnnTrain, loopDispatch, clusterLoop} {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runWorkload(w, runConfig{seed: 3, seconds: 0.3, segments: 1, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Counts.Attempted == 0 || rep.Counts.Failed != 0 {
				t.Fatalf("correct=%v counts=%+v error=%q", rep.Correct, rep.Counts, rep.Error)
			}
			for _, m := range endToEnd {
				// Under the race detector every operation may miss the
				// latency limit, so that share alone may be zero.
				v, ok := rep.Metrics[m.Name]
				if !ok || v.Value < 0 || (v.Value == 0 && m.Name != "ok_under_limit_share") {
					t.Errorf("%s = %v, want a positive number", m.Name, v.Value)
				}
			}
		})
	}
}

// A wrong answer must be counted as a failure, not timed as a success.
func TestOracleFailureIsCounted(t *testing.T) {
	start, err := loopDispatch.start(1, "")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := start()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if err := inst.check(0, loopResult{count: loopIters, acc: 0}); err == nil {
		t.Error("the oracle accepted a wrong accumulator")
	}
	res, err := inst.call(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.check(6, res); err == nil {
		t.Error("the oracle accepted input 5's answer for input 6")
	}
}

// BENCHMARK.json and the metric tables must name the same metrics, units,
// directions and bounds, and the same workloads.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.Name)
		}
	}
	compare := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.Higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != better || (bounded && g.Bound != m.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program has %+v", kind, i, g, m)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
