package rendezvous

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func tok(v float64) exec.Token {
	return exec.Token{Val: ops.TensorVal(tensor.Scalar(v))}
}

func TestLocalSendThenRecv(t *testing.T) {
	l := NewLocal(0, 0)
	if err := l.Send("k", tok(4)); err != nil {
		t.Fatal(err)
	}
	got, err := l.Recv("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Val.T.ScalarValue() != 4 {
		t.Fatalf("got %v", got.Val)
	}
}

// waitUntil polls cond until it holds, failing t after five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// slots reports how many keys of l a receiver or a sender has touched and
// no receiver has consumed: a Recv makes its key's slot before it blocks.
func slots(l *Local) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.slots)
}

func TestLocalRecvBlocksUntilSend(t *testing.T) {
	l := NewLocal(0, 0)
	done := make(chan exec.Token, 1)
	go func() {
		tk, err := l.Recv("k", nil)
		if err != nil {
			t.Error(err)
		}
		done <- tk
	}()
	waitUntil(t, "the recv to wait on its slot", func() bool { return slots(l) == 1 })
	select {
	case <-done:
		t.Fatal("recv returned before send")
	default:
	}
	if err := l.Send("k", tok(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case tk := <-done:
		if tk.Val.T.ScalarValue() != 1 {
			t.Fatal("wrong token")
		}
	case <-time.After(time.Second):
		t.Fatal("recv never returned")
	}
}

func TestLocalDuplicateSendFails(t *testing.T) {
	l := NewLocal(0, 0)
	if err := l.Send("k", tok(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Send("k", tok(2)); err == nil {
		t.Fatal("expected duplicate-send error")
	}
}

func TestLocalDeadTokenCrosses(t *testing.T) {
	l := NewLocal(0, 0)
	if err := l.Send("k", exec.Token{Dead: true}); err != nil {
		t.Fatal(err)
	}
	got, err := l.Recv("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dead {
		t.Fatal("is_dead signal lost")
	}
}

func TestLocalCancel(t *testing.T) {
	l := NewLocal(0, 0)
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := l.Recv("never", cancel)
		errc <- err
	}()
	close(cancel)
	if err := <-errc; err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestLocalAbortUnblocksAll(t *testing.T) {
	l := NewLocal(0, 0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A key of its own, so the slots count the receivers waiting.
			if _, err := l.Recv(fmt.Sprint("nothing", i), nil); err == nil {
				t.Error("expected abort error")
			}
		}()
	}
	waitUntil(t, "four recvs to wait", func() bool { return slots(l) == 4 })
	l.Abort(nil)
	wg.Wait()
	if err := l.Send("later", tok(1)); err == nil {
		t.Fatal("send after abort should fail")
	}
}

func TestLocalLatency(t *testing.T) {
	l := NewLocal(15*time.Millisecond, 0)
	_ = l.Send("k", tok(1))
	start := time.Now()
	if _, err := l.Recv("k", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency not applied: %v", d)
	}
}

func TestDstWorkerParsing(t *testing.T) {
	if w := DstWorker("e=x:0;dstd=gpu:1;dstw=w3@/while:4"); w != "w3" {
		t.Fatalf("got %q", w)
	}
	if w := DstWorker("plainkey"); w != "" {
		t.Fatalf("got %q", w)
	}
}

func TestNetTwoWorkers(t *testing.T) {
	a, err := NewNet("wA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNet("wB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("wB", b.Addr())
	b.AddPeer("wA", a.Addr())

	key := "e=x:0;dstd=d1;dstw=wB@tag"
	errc := make(chan error, 1)
	got := make(chan exec.Token, 1)
	go func() {
		tk, err := b.Recv(key, nil)
		errc <- err
		got <- tk
	}()
	if err := a.Send(key, tok(42)); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	tk := <-got
	if tk.Val.T.ScalarValue() != 42 {
		t.Fatalf("got %v", tk.Val)
	}
	// Dead token across TCP.
	key2 := "e=y:0;dstd=d1;dstw=wB@tag"
	go func() {
		tk, err := b.Recv(key2, nil)
		if err != nil {
			t.Error(err)
		}
		if !tk.Dead {
			t.Error("dead flag lost over TCP")
		}
		got <- tk
	}()
	if err := a.Send(key2, exec.Token{Dead: true}); err != nil {
		t.Fatal(err)
	}
	<-got
}

func TestNetSelfSendStaysLocal(t *testing.T) {
	a, err := NewNet("wA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	key := "e=z:0;dstd=d0;dstw=wA@t"
	if err := a.Send(key, tok(7)); err != nil {
		t.Fatal(err)
	}
	tk, err := a.Recv(key, nil)
	if err != nil || tk.Val.T.ScalarValue() != 7 {
		t.Fatalf("%v %v", tk, err)
	}
}

func TestNetResourceRejected(t *testing.T) {
	a, err := NewNet("wA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNet("wB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("wB", b.Addr())
	res := ops.NewResources().LookupOrCreate("x", func() ops.Resource { return dummyRes{} })
	err = a.Send("e;dstw=wB", exec.Token{Val: ops.ResourceVal(res)})
	if err == nil || !strings.Contains(err.Error(), "resource") {
		t.Fatalf("want resource rejection, got %v", err)
	}
}

type dummyRes struct{}

func (dummyRes) ResourceName() string { return "dummy" }
