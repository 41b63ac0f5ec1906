package distrib

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestForeignFetchOrTarget: a fetch or target taken from another graph is
// an error from every entry point that prunes a run signature — a Session
// run, MakeCallable and Fleet.NewCluster. At a small id the foreign node
// shares its id with a node of this graph, whose value the step would
// return (or which it would run); at a large id it names no node here.
func TestForeignFetchOrTarget(t *testing.T) {
	b := core.NewBuilder()
	b.Add(b.Scalar(1), b.Scalar(2))
	other := core.NewBuilder()
	for i := 0; i < 20; i++ {
		other.Scalar(float64(i))
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	foreign := other.G.Nodes()
	small, large := foreign[1], foreign[len(foreign)-1]
	s := core.NewSession(b)
	for _, c := range []struct {
		name    string
		fetches []graph.Output
		targets []*graph.Node
		want    string
	}{
		{"fetch small id", []graph.Output{small.Out(0)}, nil, "fetch 0 is not a node of this graph"},
		{"fetch large id", []graph.Output{large.Out(0)}, nil, "fetch 0 is not a node of this graph"},
		{"target small id", nil, []*graph.Node{small}, "target 0 is not a node of this graph"},
		{"target large id", nil, []*graph.Node{large}, "target 0 is not a node of this graph"},
	} {
		t.Run(c.name, func(t *testing.T) {
			check := func(entry string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: %v, want an error containing %q", entry, err, c.want)
				}
			}
			_, err := s.Run(nil, c.fetches, c.targets)
			check("Session.Run", err)
			_, err = s.MakeCallable(core.CallableSpec{Fetches: c.fetches, Targets: c.targets})
			check("MakeCallable", err)
			_, err = newTestCluster(t, false, b, c.fetches, c.targets, TCPOptions{})
			check("Fleet.NewCluster", err)
		})
	}
}
