package rendezvous

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// poolLive is the buffer pool's live-bytes gauge, as /metrics exports it.
var poolLive = metrics.Default().Gauge("tensor_pool_live_bytes")

// frameSeeds is one token per wire shape: every dtype, a dead token with no
// payload, and an empty tensor.
func frameSeeds() []exec.Token {
	return []exec.Token{
		liveTok(tensor.FromFloats([]float64{1.5, -2.25, math.Inf(1), math.Copysign(0, -1), 1e-310, 99}, 2, 3)),
		liveTok(tensor.FromInts([]int64{math.MinInt64, 0, 1 << 40}, 3)),
		liveTok(tensor.FromBools([]bool{true, false, false, true}, 2, 2)),
		liveTok(tensor.FromStrings([]string{"", "héllo", "wörld;dstw=fake"}, 3)),
		liveTok(tensor.Scalar(-7.75)),
		liveTok(tensor.New(tensor.Float, 0, 4)),
		{Dead: true},
		{Dead: true, Val: ops.TensorVal(tensor.Scalar(3))},
	}
}

// mustFrame is the whole frame of tok: the head appendFrame builds, then
// the payload it leaves in place.
func mustFrame(t testing.TB, key string, tok exec.Token) []byte {
	t.Helper()
	head, payload, err := appendFrame(nil, key, tok)
	if err != nil {
		t.Fatal(err)
	}
	return append(head, payload...)
}

// refFrame is the frame of tok built by the per-element little-endian
// encoder the wire began with: the reference for what a sender writes.
func refFrame(key string, tok exec.Token) []byte {
	var flags, dtype byte
	var shape []int
	var payload []byte
	if tok.Dead {
		flags |= flagDead
	}
	if v := tok.Val.T; v != nil {
		flags |= flagTensor
		dtype, shape = byte(v.DType()), v.ShapeRef()
		for _, x := range v.F {
			payload = le.AppendUint64(payload, math.Float64bits(x))
		}
		for _, x := range v.I {
			payload = le.AppendUint64(payload, uint64(x))
		}
		for _, x := range v.B {
			var b byte
			if x {
				b = 1
			}
			payload = append(payload, b)
		}
		for _, s := range v.S {
			payload = append(le.AppendUint32(payload, uint32(len(s))), s...)
		}
	}
	b := []byte{frameVersion, flags, dtype, byte(len(shape))}
	b = le.AppendUint32(b, uint32(len(key)))
	b = le.AppendUint64(b, uint64(len(payload)))
	for _, d := range shape {
		b = le.AppendUint64(b, uint64(d))
	}
	return append(append(b, key...), payload...)
}

func liveTok(t *tensor.Tensor) exec.Token { return exec.Token{Val: ops.TensorVal(t)} }

// wireSeeds are frameSeeds plus the edges of a payload sent as it lies in
// memory: an empty float, a rank-0 int and the 128 KB hop.
func wireSeeds() []exec.Token {
	return append(frameSeeds(),
		liveTok(tensor.New(tensor.Float, 0, 256)),
		liveTok(tensor.ScalarInt(-3)),
		liveTok(hop128K()))
}

// TestWireBytesMatchReference: what Send puts on a peer's socket — one
// writev of head and payload — is, byte for byte, the frame the
// per-element encoder builds, for every dtype and shape.
func TestWireBytesMatchReference(t *testing.T) {
	a, _ := netPair(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a.AddPeer("wRaw", ln.Addr().String())
	var conn net.Conn
	for i, tok := range wireSeeds() {
		key := sendKey("wRaw", fmt.Sprint("b", i))
		sent := make(chan error, 1)
		go func() { sent <- a.Send(key, tok) }()
		if conn == nil {
			if conn, err = ln.Accept(); err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if p := make([]byte, len(preface)); readFull(t, conn, p) != preface {
				t.Fatalf("preface %q", p)
			}
		}
		want := refFrame(key, tok)
		if got := readFull(t, conn, make([]byte, len(want))); got != string(want) {
			t.Fatalf("seed %d: the sender wrote\n% x\nthe reference encodes\n% x", i, clip(got), clip(string(want)))
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
}

func readFull(t *testing.T, r io.Reader, p []byte) string {
	t.Helper()
	if _, err := io.ReadFull(r, p); err != nil {
		t.Fatal(err)
	}
	return string(p)
}

func clip(s string) string { return s[:min(len(s), 96)] }

// TestFrameReadsOfAnySize: a frame decodes to the same token however the
// connection splits it, one byte per read or half of what was asked.
func TestFrameReadsOfAnySize(t *testing.T) {
	for i, tok := range wireSeeds() {
		key := sendKey("wB", fmt.Sprint("r", i))
		frame := mustFrame(t, key, tok)
		for _, split := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{{"OneByteReader", iotest.OneByteReader}, {"HalfReader", iotest.HalfReader}} {
			gotKey, got, bad, err := readFrame(bufio.NewReaderSize(split.wrap(bytes.NewReader(frame)), readBufSize))
			if bad != nil || err != nil || gotKey != key || !sameToken(tok, got) {
				t.Fatalf("seed %d over %s: got %q %+v, bad %v, err %v", i, split.name, gotKey, got, bad, err)
			}
			tensor.Recycle(got.Val.T)
		}
	}
}

// TestFrameCutStreamFails: a connection that ends inside a payload — at
// each of its first and last 64 bytes — fails the read without a panic,
// and the tensor it was filling goes back to the pool.
func TestFrameCutStreamFails(t *testing.T) {
	frame := mustFrame(t, sendKey("wB", "cut"), liveTok(hop128K()))
	body := len(frame) - 8*64*256
	live0 := poolLive.Value()
	for i := 0; i < 128; i++ {
		cut := body + i
		if i >= 64 {
			cut = len(frame) - 128 + i
		}
		_, tok, bad, err := readFrame(bufio.NewReaderSize(bytes.NewReader(frame[:cut]), readBufSize))
		if err == nil || bad != nil || tok.Val.T != nil {
			t.Fatalf("stream cut %d bytes into the payload: token %+v, bad %v, err %v; want only err", cut-body, tok, bad, err)
		}
		if live := poolLive.Value(); live != live0 {
			t.Fatalf("stream cut %d bytes into the payload: pool live bytes %d, started at %d", cut-body, live, live0)
		}
	}
}

// decode reads one frame from b; a bad frame and a lost stream both come
// back as the error.
func decode(b []byte) (string, exec.Token, error) {
	key, tok, bad, err := readFrame(bufio.NewReaderSize(bytes.NewReader(b), readBufSize))
	return key, tok, errors.Join(bad, err)
}

// sameToken reports whether two tokens carry the same deadness and the same
// tensor, bit for bit (tensor.Equal would call NaNs unequal).
func sameToken(a, b exec.Token) bool {
	if a.Dead != b.Dead || (a.Val.T == nil) != (b.Val.T == nil) {
		return false
	}
	x, y := a.Val.T, b.Val.T
	if x == nil || x.DType() != tensor.Float {
		return x == nil || tensor.Equal(x, y)
	}
	if y.DType() != tensor.Float || !tensor.ShapeEq(x.ShapeRef(), y.ShapeRef()) {
		return false
	}
	for i := range x.F {
		if math.Float64bits(x.F[i]) != math.Float64bits(y.F[i]) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	for i, tok := range frameSeeds() {
		key := sendKey("wB", "t") + strings.Repeat("x", i)
		gotKey, got, err := decode(mustFrame(t, key, tok))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if gotKey != key || !sameToken(tok, got) {
			t.Fatalf("seed %d: sent %q %+v, got %q %+v", i, key, tok, gotKey, got)
		}
		if got.Owned != (got.Val.T != nil) {
			t.Fatalf("seed %d: a decoded tensor must arrive Owned, got Owned=%v", i, got.Owned)
		}
	}
}

// TestFrameMalformed: every way a frame can lie yields an error, never a
// panic. A lie about the contents (the extent still adds up) is reported as
// a bad frame and leaves the stream at the next one; a header that cannot
// be trusted, or a short stream, ends the connection.
func TestFrameMalformed(t *testing.T) {
	const dimsAt, dtypeAt, rankAt, keyLenAt, payloadAt = headerLen, 2, 3, 4, 8
	vec4 := func() []byte { return mustFrame(t, "k", netTokVec(1, 2, 3, 4)) }
	next := mustFrame(t, "next", netTok(7))
	cases := []struct {
		name      string
		frame     []byte
		wantFrame bool // a bad frame; else the connection is lost
	}{
		{"shape [4], 1-element payload", func() []byte {
			b := mustFrame(t, "k", netTok(1)) // rank 0, 8 payload bytes
			b[rankAt] = 1
			dim := le.AppendUint64(nil, 4)
			return append(b[:dimsAt:dimsAt], append(dim, b[dimsAt:]...)...)
		}(), true},
		{"negative dim", func() []byte { b := vec4(); le.PutUint64(b[dimsAt:], ^uint64(0)); return b }(), true},
		{"overflowing dims", func() []byte {
			b := mustFrame(t, "k", exec.Token{Val: ops.TensorVal(tensor.New(tensor.Float, 2, 2))})
			le.PutUint64(b[dimsAt:], 1<<62)
			le.PutUint64(b[dimsAt+8:], 1<<62)
			return b
		}(), true},
		{"unknown dtype", func() []byte { b := vec4(); b[dtypeAt] = 99; return b }(), true},
		{"ragged payload", func() []byte { b := vec4(); le.PutUint64(b[payloadAt:], 31); return b[:len(b)-1] }(), true},
		{"string overruns payload", func() []byte {
			b := mustFrame(t, "k", exec.Token{Val: ops.TensorVal(tensor.FromStrings([]string{"abc"}, 1))})
			le.PutUint32(b[len(b)-7:], 200)
			return b
		}(), true},
		{"payload without a tensor", func() []byte { b := vec4(); b[1] &^= flagTensor; return b }(), true},
		{"oversized key", func() []byte { b := vec4(); le.PutUint32(b[keyLenAt:], maxKeyLen+1); return b }(), false},
		{"oversized rank", func() []byte { b := vec4(); b[rankAt] = maxRank + 1; return b }(), false},
		{"oversized payload", func() []byte { b := vec4(); le.PutUint64(b[payloadAt:], maxPayloadLen+1); return b }(), false},
		{"wrong version", func() []byte { b := vec4(); b[0] = frameVersion + 1; return b }(), false},
		{"truncated header", vec4()[:headerLen-1], false},
		{"truncated key", vec4()[:headerLen+8], false},
		{"truncated payload", func() []byte { b := vec4(); return b[:len(b)-3] }(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stream := c.frame
			if c.wantFrame {
				stream = append(stream, next...)
			}
			r := bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)
			key, _, bad, err := readFrame(r)
			if (bad != nil) != c.wantFrame || (err != nil) == c.wantFrame {
				t.Fatalf("want a bad frame=%v, got bad=%v err=%v", c.wantFrame, bad, err)
			}
			if !c.wantFrame {
				return
			}
			if key != "k" {
				t.Fatalf("bad frame names key %q, want k", key)
			}
			if key, tok, bad, err := readFrame(r); bad != nil || err != nil || key != "next" || tok.Val.T.ScalarValue() != 7 {
				t.Fatalf("stream out of sync after a bad frame: %q %+v %v %v", key, tok, bad, err)
			}
		})
	}
}

func netTokVec(v ...float64) exec.Token {
	return exec.Token{Val: ops.TensorVal(tensor.FromFloats(v, len(v)))}
}

// FuzzFrameDecode: arbitrary bytes never panic the decoder, whatever it
// accepts fits the wire limits, and decode(encode(x)) == x.
func FuzzFrameDecode(f *testing.F) {
	for _, tok := range frameSeeds() {
		f.Add(mustFrame(f, sendKey("wB", "t0"), tok))
	}
	// A payload larger than the read buffer, which takes several reads.
	f.Add(mustFrame(f, sendKey("wB", "t0"), liveTok(tensor.Full(0.5, 3, readBufSize/16))))
	f.Fuzz(func(t *testing.T, data []byte) {
		tensor.ResetPoolWater()
		key, tok, err := decode(data)
		if peak := tensor.PoolPeakBytes(); peak > maxPayloadLen {
			t.Fatalf("decoding allocated %d tensor bytes, over the frame cap", peak)
		}
		if err != nil {
			return
		}
		if len(key) > maxKeyLen {
			t.Fatalf("accepted a %d-byte key", len(key))
		}
		if v := tok.Val.T; v != nil && v.DType() != tensor.Str && v.NumBytes() > int64(len(data)) {
			t.Fatalf("a %d-byte frame decoded into %d tensor bytes", len(data), v.NumBytes())
		}
		key2, tok2, err := decode(mustFrame(t, key, tok))
		if err != nil || key2 != key || !sameToken(tok, tok2) {
			t.Fatalf("re-encode changed the token: %q %+v -> %q %+v (%v)", key, tok, key2, tok2, err)
		}
	})
}

// TestBadPrefaceClosesConnection: a peer that opens with anything but the
// preface (here: a well-formed frame, but no preface) is hung up on, and
// no scope table ever sees its bytes.
func TestBadPrefaceClosesConnection(t *testing.T) {
	_, b := netPair(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(mustFrame(t, "s1|"+sendKey("wB", "t0"), netTok(1))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("want the peer to close the connection, got %v", err)
	}
	if c := b.ScopeCount(); c != 0 {
		t.Fatalf("a connection without the preface reached %d scope tables", c)
	}
}

// TestUnreadableFrameClosesOnlyThatConnection: a frame whose header cannot
// be trusted costs its connection, while the peer's other traffic flows on.
func TestUnreadableFrameClosesOnlyThatConnection(t *testing.T) {
	a, b := netPair(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := mustFrame(t, "s1|"+sendKey("wB", "t0"), netTok(1))
	bad[3] = maxRank + 1
	if _, err := conn.Write(append([]byte(preface), bad...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("want the peer to close the connection, got %v", err)
	}
	if err := a.Send(sendKey("wB", "ok"), netTok(2)); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Recv(sendKey("wB", "ok"), nil); err != nil || got.Val.T.ScalarValue() != 2 {
		t.Fatalf("healthy connection disturbed: %+v %v", got, err)
	}
}

// hop128K is the benchmark's hop: a [64,256] float64 tensor.
func hop128K() *tensor.Tensor {
	t := tensor.Alloc(tensor.Float, 64, 256)
	for i := range t.F {
		t.F[i] = float64(i) * 0.5
	}
	return t
}

// TestNetPingPongOwned bounces one Owned token, the 128 KB hop and a
// scalar, between two peers. Ownership moves with it — the sender's buffer
// is recycled once written, the receiver's comes out of the pool — so a hop
// allocates nothing large and the pool's live bytes end where they began.
func TestNetPingPongOwned(t *testing.T) {
	scalar := func() *tensor.Tensor {
		s := tensor.Alloc(tensor.Float)
		s.F[0] = -7.75
		return s
	}
	for _, c := range []struct {
		name      string
		val       func() *tensor.Tensor
		maxAllocs float64 // as measured
	}{{"128K", hop128K, 4}, {"scalar", scalar, 3}} {
		t.Run(c.name, func(t *testing.T) { pingPong(t, c.val, c.maxAllocs+racePoolAllocs) })
	}
}

// racePoolAllocs is what a race build adds to a hop's allocations
// (race_test.go).
var racePoolAllocs float64

func pingPong(t *testing.T, val func() *tensor.Tensor, maxAllocs float64) {
	a, b := netPair(t)
	keyAB, keyBA := sendKey("wB", "pp"), sendKey("wA", "pp")
	live0 := poolLive.Value()
	sent0, bytes0, recv0, errs0 := metricFramesSent.Value(), metricBytesSent.Value(), metricFramesRecv.Value(), metricDecodeErrors.Value()
	tok := exec.Token{Val: ops.TensorVal(val()), Owned: true}
	want := tok.Val.T.Clone()
	roundTrip := func() {
		for _, leg := range []struct {
			from, to *Net
			key      string
		}{{a, b, keyAB}, {b, a, keyBA}} {
			if err := leg.from.Send(leg.key, tok); err != nil {
				t.Fatal(err)
			}
			var err error
			if tok, err = leg.to.Recv(leg.key, nil); err != nil {
				t.Fatal(err)
			}
			if !tok.Owned {
				t.Fatal("a wire-decoded token must arrive Owned")
			}
		}
	}
	roundTrip() // dial both directions, warm the pool
	const trips = 500
	perHop := testing.AllocsPerRun(trips, roundTrip) / 2
	t.Logf("allocs per hop: %.1f", perHop)
	if perHop > maxAllocs {
		t.Errorf("a %d-byte hop allocates %.1f objects, want <= %.1f", want.NumBytes(), perHop, maxAllocs)
	}
	if !tensor.Equal(tok.Val.T, want) {
		t.Error("payload changed over 1000 hops")
	}
	tensor.Recycle(tok.Val.T)
	if live := poolLive.Value(); live != live0 {
		t.Errorf("pool live bytes %d after the ping-pong, started at %d", live, live0)
	}
	const hops = 2 * (trips + 2) // AllocsPerRun adds one warm-up call
	// Header + payload per frame (both keys are the same length).
	frame := int64(len(refFrame(keyAB, exec.Token{Val: ops.TensorVal(want)})))
	if d := metricFramesSent.Value() - sent0; d != hops {
		t.Errorf("rendezvous_frames_sent_total moved by %d, want %d", d, hops)
	}
	if d := metricFramesRecv.Value() - recv0; d != hops {
		t.Errorf("rendezvous_frames_received_total moved by %d, want %d", d, hops)
	}
	if d := metricBytesSent.Value() - bytes0; d != hops*frame {
		t.Errorf("rendezvous_bytes_sent_total moved by %d, want %d", d, hops*frame)
	}
	if d := metricDecodeErrors.Value() - errs0; d != 0 {
		t.Errorf("rendezvous_decode_errors_total moved by %d", d)
	}
}

// TestResendNonOwned: a caller that keeps its tensor (Owned unset) may send
// it as often as it likes; Net must never recycle it.
func TestResendNonOwned(t *testing.T) {
	a, b := netPair(t)
	src := hop128K()
	want := src.Clone()
	for i := 0; i < 100; i++ {
		key := sendKey("wB", "re")
		if err := a.Send(key, exec.Token{Val: ops.TensorVal(src)}); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got.Val.T, want) || !tensor.Equal(src, want) {
			t.Fatalf("send %d: tensor damaged", i)
		}
		tensor.Recycle(got.Val.T)
	}
}

func TestDstWorkerAllocFree(t *testing.T) {
	key := "g1.s7|" + sendKey("wB", "/hops:3")
	if n := testing.AllocsPerRun(100, func() {
		if DstWorker(key) != "wB" {
			t.Fatal("wrong worker")
		}
	}); n != 0 {
		t.Fatalf("DstWorker allocates %.0f times per call", n)
	}
}

func benchHop(b *testing.B, val *tensor.Tensor) {
	x, y := netPair(b)
	tok := exec.Token{Val: ops.TensorVal(val)}
	key := sendKey("wB", "bench")
	b.SetBytes(val.NumBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Send(key, tok); err != nil {
			b.Fatal(err)
		}
		got, err := y.Recv(key, nil)
		if err != nil {
			b.Fatal(err)
		}
		tensor.Recycle(got.Val.T)
	}
}

func BenchmarkNetHop128K(b *testing.B)   { benchHop(b, hop128K()) }
func BenchmarkNetHopScalar(b *testing.B) { benchHop(b, tensor.Scalar(1)) }
