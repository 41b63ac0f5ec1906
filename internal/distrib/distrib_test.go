package distrib

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// The multi-device scenarios below run through runBothLayouts: every device
// on one loopback worker, then one worker per device, same bits required.

func TestSimpleCrossDeviceEdge(t *testing.T) {
	out := runBothLayouts(t, scenario{
		build: func() (*core.Builder, []graph.Output, []*graph.Node) {
			b := core.NewBuilder()
			var x, y graph.Output
			b.WithDevice("dev:0", func() { x = b.Scalar(3) })
			b.WithDevice("dev:1", func() { y = b.Op("Square", nil, x) }) // crosses dev0 -> dev1
			return b, []graph.Output{y}, nil
		},
		steps: []map[string]*tensor.Tensor{nil},
	})
	if out[0][0].ScalarValue() != 9 {
		t.Fatalf("got %v", out[0][0])
	}
}

func TestDistributedWhileLoop(t *testing.T) {
	// Loop driver on dev:0; the body's op on dev:1 (the Figure 6 setup).
	out := runBothLayouts(t, scenario{
		build: func() (*core.Builder, []graph.Output, []*graph.Node) {
			b := core.NewBuilder()
			var outs []graph.Output
			b.WithDevice("dev:0", func() {
				outs = b.While(
					[]graph.Output{b.Scalar(0)},
					func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(10)) },
					func(v []graph.Output) []graph.Output {
						var r graph.Output
						b.WithDevice("dev:1", func() {
							r = b.Add(v[0], b.Scalar(1)) // Op on device B
						})
						return []graph.Output{r}
					},
					core.WhileOpts{},
				)
			})
			return b, outs[:1], nil
		},
		steps: []map[string]*tensor.Tensor{nil},
	})
	if out[0][0].ScalarValue() != 10 {
		t.Fatalf("got %v, want 10", out[0][0])
	}
}

// TestDistributedLoopDeclaredWindow runs a loop whose body crosses workers
// at the two ends of the window it declares: one iteration in flight, and
// the default's 32. The window trades memory for parallelism only (§4.3),
// so every layout at every window fetches the same bits.
func TestDistributedLoopDeclaredWindow(t *testing.T) {
	init := tensor.RandNormal(tensor.NewRNG(7), 0, 1, 3, 3)
	var ref *tensor.Tensor
	for _, window := range []int{1, 32} {
		out := runBothLayouts(t, scenario{
			build: func() (*core.Builder, []graph.Output, []*graph.Node) {
				b := core.NewBuilder()
				var outs []graph.Output
				b.WithDevice("dev:0", func() {
					outs = b.While(
						[]graph.Output{b.Scalar(0), b.Const(init)},
						func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(12)) },
						func(v []graph.Output) []graph.Output {
							var m graph.Output
							b.WithDevice("dev:1", func() { m = b.Tanh(b.MatMul(v[1], v[1])) })
							return []graph.Output{b.Add(v[0], b.Scalar(1)), m}
						},
						core.WhileOpts{ParallelIterations: window},
					)
				})
				return b, outs[1:], nil
			},
			steps: []map[string]*tensor.Tensor{nil},
		})
		if ref == nil {
			ref = out[0][0]
			continue
		}
		sameBits(t, fmt.Sprintf("window %d vs window 1", window), out[0][0], ref)
	}
}

func TestDistributedLoopManyDevices(t *testing.T) {
	// A chain of ops across 4 devices inside one loop.
	devs := []string{"dev:0", "dev:1", "dev:2", "dev:3"}
	out := runBothLayouts(t, scenario{
		build: func() (*core.Builder, []graph.Output, []*graph.Node) {
			b := core.NewBuilder()
			var outs []graph.Output
			b.WithDevice(devs[0], func() {
				outs = b.While(
					[]graph.Output{b.Scalar(0)},
					func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(6)) },
					func(v []graph.Output) []graph.Output {
						cur := v[0]
						for _, d := range devs[1:] {
							b.WithDevice(d, func() {
								cur = b.Add(cur, b.Scalar(0.25))
							})
						}
						b.WithDevice(devs[0], func() {
							cur = b.Add(cur, b.Scalar(0.25))
						})
						return []graph.Output{cur}
					},
					core.WhileOpts{},
				)
			})
			return b, outs[:1], nil
		},
		steps: []map[string]*tensor.Tensor{nil},
	})
	if out[0][0].ScalarValue() != 6 {
		t.Fatalf("got %v, want 6", out[0][0])
	}
}

func TestDistributedCondDeadnessPropagation(t *testing.T) {
	// The untaken branch's op lives on another device: an is_dead signal
	// must cross the network so the remote Recv is reclaimed (§4.4).
	out := runBothLayouts(t, scenario{
		build: func() (*core.Builder, []graph.Output, []*graph.Node) {
			b := core.NewBuilder()
			var outs []graph.Output
			b.WithDevice("dev:0", func() {
				p := b.Placeholder("p")
				x := b.Scalar(5)
				outs = b.Cond(p,
					func() []graph.Output {
						var r graph.Output
						b.WithDevice("dev:1", func() { r = b.Op("Square", nil, x) })
						// Bring it back to dev:0.
						var back graph.Output
						b.WithDevice("dev:0", func() { back = b.Op("Identity", nil, r) })
						return []graph.Output{back}
					},
					func() []graph.Output { return []graph.Output{b.Neg(x)} },
				)
			})
			return b, outs[:1], nil
		},
		steps: []map[string]*tensor.Tensor{
			{"p": tensor.ScalarBool(true)},
			{"p": tensor.ScalarBool(false)},
		},
	})
	if taken, untaken := out[0][0].ScalarValue(), out[1][0].ScalarValue(); taken != 25 || untaken != -5 {
		t.Fatalf("taken branch %v (want 25), untaken %v (want -5)", taken, untaken)
	}
}

func TestMultipleStepsReuseCluster(t *testing.T) {
	out := runBothLayouts(t, scenario{
		build: func() (*core.Builder, []graph.Output, []*graph.Node) {
			b := core.NewBuilder()
			var y graph.Output
			b.WithDevice("dev:0", func() {
				x := b.Placeholder("x")
				b.WithDevice("dev:1", func() { y = b.Op("Square", nil, x) })
			})
			return b, []graph.Output{y}, nil
		},
		steps: []map[string]*tensor.Tensor{
			{"x": tensor.Scalar(1)}, {"x": tensor.Scalar(2)}, {"x": tensor.Scalar(3)},
		},
	})
	for i, want := range []float64{1, 4, 9} {
		if out[i][0].ScalarValue() != want {
			t.Fatalf("step %d: got %v, want %v", i, out[i][0], want)
		}
	}
}

func TestVariablesAcrossDistributedSteps(t *testing.T) {
	// The variable and everything that touches it live on dev:0 (one
	// variable, one owning worker); the read crosses to dev:1. A control
	// edge orders each step's read after its increment, so the values are
	// exact, and the variable lives in the worker's session resources, so
	// they accumulate across steps.
	out := runBothLayouts(t, scenario{
		build: func() (*core.Builder, []graph.Output, []*graph.Node) {
			b := core.NewBuilder()
			var read graph.Output
			var inc *graph.Node
			b.WithDevice("dev:0", func() {
				b.Variable("w", tensor.Scalar(0))
				inc = b.OpNode("AssignAdd", "", map[string]any{"var": "w"}, b.Scalar(1))
				read = b.ReadVariable("w")
				read.Node.AddControlInput(inc)
			})
			b.WithDevice("dev:1", func() { read = b.Op("Identity", nil, read) })
			return b, []graph.Output{read}, []*graph.Node{inc}
		},
		state: map[string]*tensor.Tensor{"w": tensor.Scalar(10)},
		steps: []map[string]*tensor.Tensor{nil, nil, nil},
	})
	for i, want := range []float64{11, 12, 13} {
		if out[i][0].ScalarValue() != want {
			t.Fatalf("step %d read %v, want %v", i, out[i][0], want)
		}
	}
}

func TestCrossDeviceControlEdgeRouted(t *testing.T) {
	// A control edge across devices is rewritten through a Send/Recv of
	// the source's data output.
	out := runBothLayouts(t, scenario{
		build: func() (*core.Builder, []graph.Output, []*graph.Node) {
			b := core.NewBuilder()
			var a, c *graph.Node
			b.WithDevice("dev:0", func() {
				a = b.OpNode("Const", "", map[string]any{"value": tensor.Scalar(1)})
			})
			b.WithDevice("dev:1", func() {
				c = b.OpNode("Const", "", map[string]any{"value": tensor.Scalar(2)})
			})
			c.AddControlInput(a)
			return b, []graph.Output{c.Out(0)}, nil
		},
		steps: []map[string]*tensor.Tensor{nil},
	})
	if out[0][0].ScalarValue() != 2 {
		t.Fatalf("got %v", out[0][0])
	}
}

func TestNestedCrossDeviceLoopRejected(t *testing.T) {
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("dev:0", func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(2)) },
			func(v []graph.Output) []graph.Output {
				inner := b.While(
					[]graph.Output{v[0]},
					func(iv []graph.Output) graph.Output { return b.Less(iv[0], b.Scalar(3)) },
					func(iv []graph.Output) []graph.Output {
						var r graph.Output
						b.WithDevice("dev:1", func() { r = b.Add(iv[0], b.Scalar(1)) })
						return []graph.Output{r}
					},
					core.WhileOpts{Name: "inner"},
				)
				return []graph.Output{inner[0]}
			},
			core.WhileOpts{},
		)
	})
	_, err := newTestCluster(t, false, b, []graph.Output{outs[0]}, nil, TCPOptions{})
	if err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("want nested-loop rejection, got %v", err)
	}
}

func TestControlEdgeFromNoOpRejected(t *testing.T) {
	b := core.NewBuilder()
	var a, c2 *graph.Node
	b.WithDevice("dev:0", func() {
		a = b.OpNode("NoOp", "", nil)
	})
	b.WithDevice("dev:1", func() {
		c2 = b.OpNode("Const", "", map[string]any{"value": tensor.Scalar(2)})
	})
	c2.AddControlInput(a)
	_, err := newTestCluster(t, false, b, []graph.Output{c2.Out(0)}, nil, TCPOptions{})
	if err == nil || !strings.Contains(err.Error(), "no data output") {
		t.Fatalf("want no-data-output rejection, got %v", err)
	}
}

// TestUnpairedRecvRejectedBeforeRegistration: only the driver sees every
// partition, so only it can tell that no Send anywhere publishes a Recv's
// key. It must say so at construction — with nothing registered on any
// worker — rather than let the step block on the key until the caller's
// deadline.
func TestUnpairedRecvRejectedBeforeRegistration(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	b := core.NewBuilder()
	var y graph.Output
	b.WithDevice("wA/cpu", func() { y = b.Scalar(3) })
	b.WithDevice("wB/cpu", func() {
		orphan := b.OpNode("Recv", "", map[string]any{"key": "e=nothing:0;dstd=wB/cpu;dstw=wB"})
		y = b.Add(b.Op("Square", nil, y), orphan.Out(0))
	})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	tc, err := fleet.NewCluster(b, []graph.Output{y}, nil, TCPOptions{})
	if err == nil {
		tc.Close()
		t.Fatal("a Recv whose key no Send publishes was accepted")
	}
	if !strings.Contains(err.Error(), "recv-unpaired") {
		t.Fatalf("want a recv-unpaired diagnostic, got %v", err)
	}
	for _, w := range workers {
		addr, err := w.ServeHealth("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("ok %s graphs=0 ", w.Name()); !strings.HasPrefix(string(body), want) {
			t.Fatalf("worker %s answers %q after the rejected construction, want %q…", w.Name(), body, want)
		}
	}
}
