package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestCallableBasic(t *testing.T) {
	b := NewBuilder()
	x := b.Placeholder("x")
	y := b.Placeholder("y")
	sum := b.Add(x, y)
	s := NewSession(b)
	c, err := s.MakeCallable(CallableSpec{Feeds: []string{"x", "y"}, Fetches: []graph.Output{sum}})
	if err != nil {
		t.Fatal(err)
	}
	out, md, err := c.CallCtx(context.Background(), tensor.Scalar(2), tensor.Scalar(3))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarValue() != 5 {
		t.Fatalf("got %v want 5", out[0])
	}
	if md.Stats.NodesExecuted == 0 || md.Stats.NodesInRun == 0 {
		t.Fatalf("metadata not populated: %+v", md)
	}

	// Wrong arity is an error, not a misbinding.
	if _, _, err := c.CallCtx(context.Background(), tensor.Scalar(2)); err == nil {
		t.Fatal("want arity error")
	}
}

func TestCallableTargetsMutateVariables(t *testing.T) {
	b := NewBuilder()
	b.Variable("v", tensor.Scalar(0))
	x := b.Placeholder("x")
	add := b.OpNode("AssignAdd", "", map[string]any{"var": "v"}, x)
	read := b.ReadVariable("v")
	s := NewSession(b)
	if err := s.InitVariables(); err != nil {
		t.Fatal(err)
	}
	c, err := s.MakeCallable(CallableSpec{Feeds: []string{"x"}, Targets: []*graph.Node{add}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.CallCtx(context.Background(), tensor.Scalar(2)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fetch1(s, nil, read)
	if err != nil {
		t.Fatal(err)
	}
	if got.ScalarValue() != 6 {
		t.Fatalf("v = %v want 6", got)
	}
}

func TestCallableBadFeedName(t *testing.T) {
	b := NewBuilder()
	x := b.Placeholder("x")
	s := NewSession(b)
	if _, err := s.MakeCallable(CallableSpec{Feeds: []string{"nope"}, Fetches: []graph.Output{x}}); err == nil {
		t.Fatal("want error for unknown feed name")
	}
	if _, err := s.MakeCallable(CallableSpec{Feeds: []string{"Square"}, Fetches: []graph.Output{b.Op("Square", nil, x)}}); err == nil {
		t.Fatal("want error for non-placeholder feed name")
	}
	if _, err := s.MakeCallable(CallableSpec{Feeds: []string{"x", "x"}, Fetches: []graph.Output{x}}); err == nil {
		t.Fatal("want error for duplicate feed name")
	}
}

// TestCallableStaleAfterGraphMutation asserts a callable refuses to serve
// a plan compiled before a graph mutation (the same hazard the versioned
// plan cache closes for Session.Run).
func TestCallableStaleAfterGraphMutation(t *testing.T) {
	b := NewBuilder()
	a := b.Const(tensor.Scalar(3))
	c := b.Const(tensor.Scalar(5))
	sum := b.Add(a, a)
	s := NewSession(b)
	call, err := s.MakeCallable(CallableSpec{Fetches: []graph.Output{sum}})
	if err != nil {
		t.Fatal(err)
	}
	if out, _, err := call.CallCtx(context.Background()); err != nil || out[0].ScalarValue() != 6 {
		t.Fatalf("got %v, %v; want 6", out, err)
	}
	sum.Node.ReplaceInput(1, c) // in-place rewrite, node count unchanged
	if _, _, err := call.CallCtx(context.Background()); err == nil {
		t.Fatal("stale callable must fail fast after a graph mutation")
	}
}

func TestCallableConcurrentCalls(t *testing.T) {
	b := NewBuilder()
	x := b.Placeholder("x")
	y := b.Op("Square", nil, x)
	s := NewSession(b)
	c, err := s.MakeCallable(CallableSpec{Feeds: []string{"x"}, Fetches: []graph.Output{y}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := float64(g*50 + i)
				out, _, err := c.CallCtx(context.Background(), tensor.Scalar(v))
				if err != nil {
					errs <- err
					return
				}
				if out[0].ScalarValue() != v*v {
					errs <- errors.New("wrong value from concurrent call")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPerRunRNGStreams asserts (a) two sessions replay identical run
// sequences — determinism survives the concurrency redesign — and (b)
// successive runs see distinct streams.
func TestPerRunRNGStreams(t *testing.T) {
	build := func() (*Session, graph.Output) {
		b := NewBuilder()
		r := b.Op("RandomUniform", map[string]any{"shape": []int{8}})
		return NewSession(b), r
	}
	s1, r1 := build()
	s2, r2 := build()
	a1, err := fetch1(s1, nil, r1)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := fetch1(s1, nil, r1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fetch1(s2, nil, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(a1, a2) {
		t.Fatal("first runs of identical sessions must match")
	}
	if tensor.Equal(a1, b1) {
		t.Fatal("successive runs must draw from distinct streams")
	}
}
