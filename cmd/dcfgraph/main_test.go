package main

import (
	"testing"

	"repro/internal/verify"
)

// TestAnalyzeHeadlines pins the bound -analyze prints for every model at the
// default window, and checks each model lints clean: a change to shape
// inference or liveness that moves a byte of a bound fails here.
func TestAnalyzeHeadlines(t *testing.T) {
	for _, c := range []struct {
		model     string
		grad      bool
		bound     string
		stepBytes int64
	}{
		{"loop", false, "peak 31816 B", 0},
		{"loop", true, "peak 102624 B + 128 B/iter", 0},
		{"cond", false, "peak 3076 B", 0},
		{"cond", true, "peak 6188 B", 0},
		{"rnn", false, "peak 1239160 B", 4608},
		{"rnn", true, "peak 5939104 B + 13072 B/iter", 7680},
	} {
		g, err := buildModel(c.model, c.grad)
		if err != nil {
			t.Fatal(err)
		}
		if ds := verify.Check(g.Builder().G, verify.Options{Complete: true}); len(ds) > 0 {
			t.Errorf("%s grad=%v: lint findings: %v", c.model, c.grad, ds)
		}
		est, ds := verify.EstimateMemory(g.Builder().G, verify.Options{})
		if est == nil {
			t.Fatalf("%s grad=%v: no estimate: %v", c.model, c.grad, ds)
		}
		if est.String() != c.bound || est.StepBytes != c.stepBytes {
			t.Errorf("%s grad=%v: %s, %d B step-resident; want %s, %d B", c.model, c.grad, est, est.StepBytes, c.bound, c.stepBytes)
		}
	}
}
