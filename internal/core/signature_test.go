package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestRunRejectsBadSignature: a run signature the graph cannot serve is an
// error from Session.Run and MakeCallable alike, never a silently ignored
// feed, another node's value or a panic.
func TestRunRejectsBadSignature(t *testing.T) {
	b := NewBuilder()
	x := b.Placeholder("x")
	b.Placeholder("unused") // outside every pruned subgraph: feeding it stays legal
	two := b.Scalar(2)
	add := b.Add(x, two)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	s := NewSession(b)
	feed := map[string]*tensor.Tensor{"x": tensor.Scalar(1)}
	if out, err := s.Run(map[string]*tensor.Tensor{"x": tensor.Scalar(1), "unused": tensor.Scalar(0)}, []graph.Output{add}, nil); err != nil || out[0].ScalarValue() != 3 {
		t.Fatalf("feeding a placeholder outside the subgraph: %v, %v", out, err)
	}
	for _, c := range []struct {
		name    string
		feeds   []string
		fetches []graph.Output
		want    string
	}{
		{"feed naming a missing node", []string{"no_such_node"}, []graph.Output{add}, `feed "no_such_node" is not a placeholder`},
		{"feed naming a non-placeholder", []string{two.Node.Name()}, []graph.Output{add}, "is not a placeholder"},
		{"fetch of a nonexistent output port", nil, []graph.Output{{Node: add.Node, Index: 1}}, "fetch 0 names output 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			feeds := map[string]*tensor.Tensor{"x": tensor.Scalar(1)}
			for _, name := range c.feeds {
				feeds[name] = tensor.Scalar(1)
			}
			if _, err := s.Run(feeds, c.fetches, nil); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Run: %v, want an error containing %q", err, c.want)
			}
			spec := CallableSpec{Feeds: append([]string{"x"}, c.feeds...), Fetches: c.fetches}
			if _, err := s.MakeCallable(spec); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("MakeCallable: %v, want an error containing %q", err, c.want)
			}
		})
	}

	// A value inside a loop body is never delivered to the root frame, so
	// fetching it fails the step with a FetchError instead of hanging.
	t.Run("fetch that can never produce a value", func(t *testing.T) {
		var inBody graph.Output
		b.While([]graph.Output{b.ScalarInt(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.ScalarInt(3)) },
			func(v []graph.Output) []graph.Output {
				inBody = b.Add(v[0], b.ScalarInt(1))
				return []graph.Output{inBody}
			}, WhileOpts{})
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		_, err := s.Run(feed, []graph.Output{inBody}, nil)
		var fe *exec.FetchError
		if !errors.As(err, &fe) || !strings.Contains(fe.Reason, "never produced") {
			t.Fatalf("fetch inside a loop body: %v, want a FetchError (never produced)", err)
		}
	})
}
