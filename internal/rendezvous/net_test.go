package rendezvous

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func sendKey(dst, tag string) string {
	return fmt.Sprintf("e=x:0;dstd=%s/cpu;dstw=%s@%s", dst, dst, tag)
}

func netTok(v float64) exec.Token {
	return exec.Token{Val: ops.TensorVal(tensor.Scalar(v))}
}

// TestConcurrentSendOnePeer hammers one peer connection from many goroutines
// (race-enabled): the per-peer mutex must serialize encoder access without
// losing or corrupting messages.
func TestConcurrentSendOnePeer(t *testing.T) {
	a, b := netPair(t)
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Send(sendKey("wB", fmt.Sprintf("t%d", i)), netTok(float64(i))); err != nil {
				errs <- err
			}
		}()
	}
	for i := 0; i < n; i++ {
		got, err := b.Recv(sendKey("wB", fmt.Sprintf("t%d", i)), nil)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got.Val.T.ScalarValue() != float64(i) {
			t.Fatalf("recv %d: got %v", i, got.Val.T.ScalarValue())
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("send: %v", err)
	}
}

// TestSlowPeerDoesNotBlockOthers is the liveness contract of the send path:
// a send stuck dialing a down peer must not delay sends to a healthy peer
// (the old implementation held one global mutex across the 5s dial-retry
// loop, so it did).
func TestSlowPeerDoesNotBlockOthers(t *testing.T) {
	a, b := netPair(t)
	// A "down" peer: a listener we close immediately, so dials fail fast
	// and the retry loop backs off.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	a.AddPeer("wDown", deadAddr)

	stuck := make(chan error, 1)
	failed := metricDialFailures.Value()
	go func() {
		stuck <- a.Send(sendKey("wDown", "t0"), netTok(1))
	}()
	// A failed attempt is counted before the dial retry backs off.
	waitUntil(t, "a failed dial", func() bool { return metricDialFailures.Value() > failed })

	start := time.Now()
	if err := a.Send(sendKey("wB", "t0"), netTok(2)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("send to healthy peer took %v while another peer was down", d)
	}
	if _, err := b.Recv(sendKey("wB", "t0"), nil); err != nil {
		t.Fatal(err)
	}
	// Closing the net must release the blocked dialer promptly.
	a.Close()
	select {
	case err := <-stuck:
		if err == nil {
			t.Fatal("send to down peer succeeded unexpectedly")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("send to down peer still blocked after Close")
	}
}

// TestScopedAbortReleasesDialRetry: a scoped send blocked dialing a down
// peer returns as soon as its scope aborts — cancellation reaches remote
// sends, not just Recvs.
func TestScopedAbortReleasesDialRetry(t *testing.T) {
	a, _ := netPair(t)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	a.AddPeer("wDown", deadAddr)

	sc := a.Scope("s1")
	done := make(chan error, 1)
	failed := metricDialFailures.Value()
	go func() {
		done <- sc.Send(sendKey("wDown", "t0"), netTok(1))
	}()
	waitUntil(t, "a failed dial", func() bool { return metricDialFailures.Value() > failed })
	sc.Abort(errors.New("step canceled"))
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("send succeeded to a down peer")
		}
		if !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("want abort error, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("scoped send ignored the scope abort")
	}
}

// TestPeerDownThenUp exercises the reconnect path: sends to a down peer fail
// the step cleanly; once the peer is back (at the same address), the next
// send dials fresh and succeeds.
func TestPeerDownThenUp(t *testing.T) {
	a, b := netPair(t)
	// Establish a live connection, then kill the peer.
	if err := a.Send(sendKey("wB", "t0"), netTok(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(sendKey("wB", "t0"), nil); err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	b.Close()

	// The established encoder is now broken. Sends must eventually fail
	// (evict + one redial, not hang forever), possibly after the kernel
	// buffers a few writes.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		err := a.Send(sendKey("wB", fmt.Sprintf("down%d", i)), netTok(1))
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sends to a dead peer kept succeeding")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart the peer at the same address: the dead encoder was evicted,
	// so the next send redials and goes through.
	b2, err := NewNet("wB", addr)
	if err != nil {
		t.Fatalf("restart peer: %v", err)
	}
	t.Cleanup(b2.Close)
	if err := a.Send(sendKey("wB", "up0"), netTok(42)); err != nil {
		t.Fatalf("send after peer restart: %v", err)
	}
	got, err := b2.Recv(sendKey("wB", "up0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Val.T.ScalarValue() != 42 {
		t.Fatalf("got %v, want 42", got.Val.T.ScalarValue())
	}
}

// TestUnknownDTypeAbortsScope: a wire message with an unrecognized dtype
// must surface as an explicit decode error on the receiver, not as a token
// with a nil tensor.
func TestUnknownDTypeAbortsScope(t *testing.T) {
	_, b := netPair(t)
	// Speak the wire protocol directly with a corrupt dtype.
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	key := "s9|" + sendKey("wB", "t0")
	recvErr := make(chan error, 1)
	go func() {
		_, err := b.Recv(key, nil)
		recvErr <- err
	}()
	frame := append([]byte(preface), mustFrame(t, key, netTok(1))...)
	frame[len(preface)+2] = 99 // the header's dtype byte
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-recvErr:
		if err == nil || !strings.Contains(err.Error(), "unknown dtype") {
			t.Fatalf("want unknown-dtype error, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("receiver never observed the decode error")
	}
}

// TestScopeIsolation: tokens land in their scope's table, aborting one scope
// leaves others running, and releasing scopes reclaims their tables.
func TestScopeIsolation(t *testing.T) {
	a, b := netPair(t)
	s1, s2 := a.Scope("g1.s1"), a.Scope("g1.s2")
	if err := s1.Send(sendKey("wB", "t0"), netTok(1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Send(sendKey("wB", "t0"), netTok(2)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Scope("g1.s2").Recv(sendKey("wB", "t0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Val.T.ScalarValue() != 2 {
		t.Fatalf("scope s2 saw %v, want 2", got.Val.T.ScalarValue())
	}
	// Abort s1 on the receiver: its recvs fail, s2's keep working.
	b.AbortScope("g1.s1", errors.New("boom"))
	if _, err := b.Scope("g1.s1").Recv(sendKey("wB", "t1"), nil); err == nil {
		t.Fatal("recv in aborted scope succeeded")
	}
	if err := s2.Send(sendKey("wB", "t1"), netTok(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Scope("g1.s2").Recv(sendKey("wB", "t1"), nil); err != nil {
		t.Fatalf("healthy scope failed after sibling abort: %v", err)
	}
	b.ReleaseScopesIf(func(scope string) bool { return scope == "g1.s1" || scope == "g1.s2" })
	if c := b.ScopeCount(); c != 0 {
		t.Fatalf("scope tables leaked: %d", c)
	}
}

// TestScopeFilterDropsStragglers: a delivery for a filtered-out scope is
// dropped instead of resurrecting the released table.
func TestScopeFilterDropsStragglers(t *testing.T) {
	a, b := netPair(t)
	b.SetScopeFilter(func(scope string) bool { return scope != "g1.s1" })
	if err := a.Scope("g1.s1").Send(sendKey("wB", "t0"), netTok(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Scope("g1.s2").Send(sendKey("wB", "t0"), netTok(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Scope("g1.s2").Recv(sendKey("wB", "t0"), nil); err != nil {
		t.Fatal(err)
	}
	b.ReleaseScopesIf(func(scope string) bool { return scope == "g1.s2" })
	if c := b.ScopeCount(); c != 0 {
		t.Fatalf("filtered scope was resurrected: %d live tables", c)
	}
	// Local operations from a draining executor of a released step must
	// fail fast, not resurrect the table either.
	if _, err := b.Scope("g1.s1").Recv(sendKey("wB", "t9"), nil); err == nil {
		t.Fatal("recv in a filter-retired scope succeeded")
	}
	if err := b.Scope("g1.s1").Send(sendKey("wB", "t9"), netTok(1)); err == nil {
		t.Fatal("send in a filter-retired scope succeeded")
	}
	if c := b.ScopeCount(); c != 0 {
		t.Fatalf("local op resurrected a retired scope: %d live tables", c)
	}
}

// TestCloseRacingAccept: a peer that connects while Close runs may be
// accepted just after Close swept the accepted connections. That
// connection has to be closed all the same, or its reader blocks on a peer
// that is not hanging up and Close waits for the reader for good (two
// workers closed in turn, each holding a connection to the other, did).
func TestCloseRacingAccept(t *testing.T) {
	for round := 0; round < 100; round++ {
		n, err := NewNet("w", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { n.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close waits on a connection it never closed", round)
		}
		conn.Close()
	}
}
