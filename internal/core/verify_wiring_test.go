package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestSessionRefusesIllFormedGraph pins the verification boundary: a graph
// that cannot execute is rejected when a plan compiles (Run's slow path and
// MakeCallable), with diagnostics, instead of hanging at step time.
func TestSessionRefusesIllFormedGraph(t *testing.T) {
	b := NewBuilder()
	x := b.Scalar(2)
	y := b.Op("Square", nil, x)
	// Corrupt the graph behind the builder's back: an Enter with no
	// frame name is structurally invalid.
	if _, err := b.G.AddNode(graph.NodeArgs{Op: "Enter", Name: "bad_enter", NumOutputs: 1,
		Inputs: []graph.Output{x}}); err != nil {
		t.Fatal(err)
	}
	s := NewSession(b)
	_, err := s.Run(nil, []graph.Output{y}, nil)
	if err == nil || !strings.Contains(err.Error(), "enter-no-frame") {
		t.Fatalf("Run on ill-formed graph: want enter-no-frame diagnostic, got %v", err)
	}
	if _, err := s.MakeCallable(CallableSpec{Fetches: []graph.Output{y}}); err == nil ||
		!strings.Contains(err.Error(), "enter-no-frame") {
		t.Fatalf("MakeCallable on ill-formed graph: want enter-no-frame diagnostic, got %v", err)
	}
}

// TestSessionVerifiesOncePerVersion pins the caching contract: the verifier
// runs at plan compile, and a cached verdict is reused until the graph
// mutates.
func TestSessionVerifiesOncePerVersion(t *testing.T) {
	b := NewBuilder()
	y := b.Op("Square", nil, b.Scalar(3))
	s := NewSession(b)
	if _, err := s.Run(nil, []graph.Output{y}, nil); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	set, ver := s.verifiedSet, s.verifiedVersion
	s.mu.RUnlock()
	if !set || ver != b.G.Version() {
		t.Fatalf("verification verdict not cached: set=%v ver=%d graph=%d", set, ver, b.G.Version())
	}
	// A mutation invalidates the verdict; the next compile re-verifies.
	z := b.Neg(y)
	if _, err := s.Run(nil, []graph.Output{z}, nil); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	ver = s.verifiedVersion
	s.mu.RUnlock()
	if ver != b.G.Version() {
		t.Fatalf("verdict not refreshed after mutation: cached %d, graph %d", ver, b.G.Version())
	}
}
