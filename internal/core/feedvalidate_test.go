package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Typed placeholders let the session and callable layers reject bad feeds
// at the API boundary, naming the placeholder — the batcher relies on this
// for enqueue-time rejection.

func typedGraph(t *testing.T) (*Builder, graph.Output, graph.Output) {
	t.Helper()
	b := NewBuilder()
	x := b.PlaceholderTyped("x", tensor.Float, -1, 3)
	y := b.Op("Square", nil, x)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	return b, x, y
}

func TestCallableValidatesDtypeRankUpFront(t *testing.T) {
	b, _, y := typedGraph(t)
	s := NewSession(b)
	c, err := s.MakeCallable(CallableSpec{Feeds: []string{"x"}, Fetches: []graph.Output{y}})
	if err != nil {
		t.Fatal(err)
	}

	// Good feed: [2,3] float.
	if _, _, err := c.CallCtx(context.Background(), tensor.Zeros(2, 3)); err != nil {
		t.Fatalf("valid feed rejected: %v", err)
	}
	cases := []struct {
		arg  *tensor.Tensor
		want string
	}{
		{tensor.FromInts([]int64{1, 2, 3}, 1, 3), `placeholder "x": want dtype float`},
		{tensor.Zeros(3), `placeholder "x": want rank 2`},
		{tensor.Zeros(2, 4), `placeholder "x": want shape [-1 3]`},
		{nil, `placeholder "x") is nil`},
	}
	for _, tc := range cases {
		_, _, err := c.CallCtx(context.Background(), tc.arg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("arg %v: want error containing %q, got %v", tc.arg, tc.want, err)
		}
	}
	// Arity still checked.
	if _, _, err := c.CallCtx(context.Background()); err == nil || !strings.Contains(err.Error(), "takes 1 feeds") {
		t.Fatalf("arity: %v", err)
	}
}

func TestRunValidatesTypedFeeds(t *testing.T) {
	b, _, y := typedGraph(t)
	s := NewSession(b)
	_, err := s.Run(map[string]*tensor.Tensor{"x": tensor.FromInts([]int64{0, 0, 0}, 1, 3)},
		[]graph.Output{y}, nil)
	if err == nil || !strings.Contains(err.Error(), `placeholder "x": want dtype float`) {
		t.Fatalf("want up-front dtype error naming the placeholder, got %v", err)
	}
	if _, err := s.Run(map[string]*tensor.Tensor{"x": tensor.Zeros(5, 3)}, []graph.Output{y}, nil); err != nil {
		t.Fatalf("valid feed rejected: %v", err)
	}
}

func TestUntypedPlaceholderUnaffected(t *testing.T) {
	b := NewBuilder()
	x := b.Placeholder("x")
	y := b.Op("Square", nil, x)
	s := NewSession(b)
	// Any dtype/shape goes through; validation only applies to declared specs.
	if _, err := s.Run(map[string]*tensor.Tensor{"x": tensor.FromInts([]int64{2})}, []graph.Output{y}, nil); err != nil {
		t.Fatalf("untyped placeholder rejected a feed: %v", err)
	}
}

func TestValidateArgsStandalone(t *testing.T) {
	b, _, y := typedGraph(t)
	s := NewSession(b)
	c, err := s.MakeCallable(CallableSpec{Feeds: []string{"x"}, Fetches: []graph.Output{y}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateArgs([]*tensor.Tensor{tensor.Zeros(4, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateArgs([]*tensor.Tensor{tensor.Zeros(4, 9)}); err == nil {
		t.Fatal("bad shape passed ValidateArgs")
	}
}
