package rendezvous

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Wire-format coverage for Net: every dtype the runtime ships must
// round-trip across a real TCP pair with dtype, shape, and values intact;
// deadness must survive; resources must be rejected at the sender.

// netPair returns two connected workers (closed via t.Cleanup).
func netPair(t testing.TB) (*Net, *Net) {
	t.Helper()
	a, err := NewNet("wA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := NewNet("wB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	a.AddPeer("wB", b.Addr())
	b.AddPeer("wA", a.Addr())
	return a, b
}

func TestWireRoundTripEveryDType(t *testing.T) {
	a, b := netPair(t)
	cases := []struct {
		name string
		val  *tensor.Tensor
	}{
		{"float_matrix", tensor.FromFloats([]float64{1.5, -2.25, 0, 3.125, -0.5, 99}, 2, 3)},
		{"float_scalar", tensor.Scalar(-7.75)},
		{"int_vector", tensor.FromInts([]int64{-9, 0, 1 << 40}, 3)},
		{"bool_matrix", tensor.FromBools([]bool{true, false, false, true}, 2, 2)},
		{"string_vector", tensor.FromStrings([]string{"", "héllo", "wörld;dstw=fake"}, 3)},
		{"empty_float", tensor.New(tensor.Float, 0, 4)},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			key := fmt.Sprintf("e=x:%d;dstd=d1;dstw=wB@tag%d", i, i)
			got := make(chan exec.Token, 1)
			errc := make(chan error, 1)
			go func() {
				tk, err := b.Recv(key, nil)
				errc <- err
				got <- tk
			}()
			if err := a.Send(key, exec.Token{Val: ops.TensorVal(c.val)}); err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			tk := <-got
			if tk.Dead {
				t.Fatal("live token arrived dead")
			}
			rt := tk.Val.T
			if rt == nil {
				t.Fatal("tensor lost in transit")
			}
			if rt.DType() != c.val.DType() {
				t.Fatalf("dtype: sent %v, got %v", c.val.DType(), rt.DType())
			}
			if !tensor.ShapeEq(rt.Shape(), c.val.Shape()) {
				t.Fatalf("shape: sent %v, got %v", c.val.Shape(), rt.Shape())
			}
			if c.val.Size() > 0 && !tensor.Equal(rt, c.val) {
				t.Fatalf("values: sent %v, got %v", c.val, rt)
			}
		})
	}
}

func TestWireDeadTokenRoundTrip(t *testing.T) {
	a, b := netPair(t)
	// Dead with no payload (the usual untaken-branch signal)...
	key := "e=d:0;dstd=d1;dstw=wB@t0"
	done := make(chan exec.Token, 1)
	go func() {
		tk, err := b.Recv(key, nil)
		if err != nil {
			t.Error(err)
		}
		done <- tk
	}()
	if err := a.Send(key, exec.Token{Dead: true}); err != nil {
		t.Fatal(err)
	}
	if tk := <-done; !tk.Dead || tk.Val.T != nil {
		t.Fatalf("dead token mangled: %+v", tk)
	}
	// ...and dead with a payload attached: deadness must win through.
	key2 := "e=d:1;dstd=d1;dstw=wB@t1"
	go func() {
		tk, err := b.Recv(key2, nil)
		if err != nil {
			t.Error(err)
		}
		done <- tk
	}()
	if err := a.Send(key2, exec.Token{Dead: true, Val: ops.TensorVal(tensor.Scalar(3))}); err != nil {
		t.Fatal(err)
	}
	if tk := <-done; !tk.Dead {
		t.Fatal("deadness lost when a payload rode along")
	}
}

func TestWireResourceRejectedBeforeTransit(t *testing.T) {
	a, _ := netPair(t)
	res := ops.NewResources().LookupOrCreate("v", func() ops.Resource { return wireDummyRes{} })
	err := a.Send("e=r:0;dstw=wB@t", exec.Token{Val: ops.ResourceVal(res)})
	if err == nil || !strings.Contains(err.Error(), "resource") {
		t.Fatalf("want sender-side resource rejection, got %v", err)
	}
	// A live resource must not cross even when marked dead=false with a
	// tensor missing; only the dead flag or a dense tensor may travel.
	if err := a.Send("e=r:1;dstw=wB@t", exec.Token{}); err != nil {
		t.Fatalf("empty token should serialize (dead-equivalent), got %v", err)
	}
}

func TestWireManyKeysOneConnection(t *testing.T) {
	// Tokens for distinct keys share one TCP connection per peer; order
	// and identity must survive interleaving.
	a, b := netPair(t)
	const n = 32
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			key := fmt.Sprintf("e=m:%d;dstd=d1;dstw=wB@t%d", i, i)
			tk, err := b.Recv(key, nil)
			if err != nil {
				errc <- err
				return
			}
			if got := tk.Val.T.ScalarIntValue(); got != int64(i) {
				errc <- fmt.Errorf("key %d carried %d", i, got)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("e=m:%d;dstd=d1;dstw=wB@t%d", i, i)
		if err := a.Send(key, exec.Token{Val: ops.TensorVal(tensor.ScalarInt(int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

type wireDummyRes struct{}

func (wireDummyRes) ResourceName() string { return "wire-dummy" }
