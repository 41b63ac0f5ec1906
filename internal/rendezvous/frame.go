package rendezvous

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Wire format limits. A header that exceeds any of them cannot be trusted
// to delimit its own frame, so the connection that carried it is closed.
const (
	frameVersion  = 1
	headerLen     = 16
	flagDead      = 1 << 0
	flagTensor    = 1 << 1
	maxKeyLen     = 1 << 15
	maxRank       = 32
	maxPayloadLen = 1 << 30 // the tensor pool's largest class of float64

	// readBufSize sizes an inbound connection's bufio.Reader (nothing is
	// allocated for a frame until this much of it, or all of it, has
	// arrived); keepScratch bounds the encode buffer an outbound one
	// retains, lest one huge string tensor pin its size forever.
	readBufSize = 64 << 10
	keepScratch = 4 << 20
	// preface opens every connection; its last byte is frameVersion.
	preface = "dcfwire\x01"
)

var (
	le                 = binary.LittleEndian
	metricFramesSent   = metrics.Default().Counter("rendezvous_frames_sent_total")
	metricBytesSent    = metrics.Default().Counter("rendezvous_bytes_sent_total")
	metricFramesRecv   = metrics.Default().Counter("rendezvous_frames_received_total")
	metricDecodeErrors = metrics.Default().Counter("rendezvous_decode_errors_total")
	metricDialFailures = metrics.Default().Counter("rendezvous_dial_failures_total")
)

// appendFrame appends the frame of one token (layout: see the package
// comment) to buf. The frame is the extended slice followed by payload:
// payload is a Float or Int tensor's bytes where they need no encoding
// (appendNumeric), to be written after the head without a copy, and nil
// when the head holds the whole frame. Only Dead and Val.T travel.
func appendFrame(buf []byte, key string, t exec.Token) (head, payload []byte, err error) {
	var flags, dtype byte
	var shape []int
	v := t.Val.T
	if t.Dead {
		flags |= flagDead
	}
	if v != nil {
		flags |= flagTensor
		dtype, shape = byte(v.DType()), v.ShapeRef()
	}
	grow := headerLen + 8*len(shape) + len(key)
	if v != nil && v.DType() > tensor.Int { // Bool and Str are encoded into buf
		grow += int(v.NumBytes())
	}
	buf = slices.Grow(buf, grow)
	start := len(buf)
	buf = append(buf, frameVersion, flags, dtype, byte(len(shape)))
	buf = le.AppendUint32(buf, uint32(len(key)))
	buf = le.AppendUint64(buf, 0) // the payload length, once it is known
	for _, d := range shape {
		buf = le.AppendUint64(buf, uint64(d))
	}
	buf = append(buf, key...)
	body := len(buf)
	if v != nil {
		switch v.DType() {
		case tensor.Float, tensor.Int:
			buf, payload = appendNumeric(buf, v)
		case tensor.Bool:
			for _, x := range v.B {
				buf = append(buf, byte(0))
				if x {
					buf[len(buf)-1] = 1
				}
			}
		case tensor.Str:
			for _, s := range v.S {
				buf = append(le.AppendUint32(buf, uint32(len(s))), s...)
			}
		}
	}
	size := len(buf) - body + len(payload)
	if len(key) > maxKeyLen || len(shape) > maxRank || size > maxPayloadLen || dtype > byte(tensor.Str) {
		return buf[:start], nil, fmt.Errorf("rendezvous: key %q (%d B): rank %d, %d payload bytes or dtype %d exceeds the wire's limits", key, len(key), len(shape), size, dtype)
	}
	le.PutUint64(buf[start+8:], uint64(size))
	return buf, payload, nil
}

// readFrame reads one frame. The header is validated before anything is
// allocated, and a numeric payload is read straight into a pooled tensor
// (readNumeric); the token returned is Owned. A frame that lies about its
// contents while its extent still adds up is skipped and reported as bad: r
// stands at the next frame and only the key's scope need fail. After err
// (an untrustworthy header, or the connection's own error) r is unusable.
func readFrame(r *bufio.Reader) (key string, tok exec.Token, bad, err error) {
	h, err := r.Peek(headerLen)
	if err != nil {
		return "", tok, nil, err
	}
	flags, dtype, rank := h[1], tensor.DType(h[2]), int(h[3])
	keyLen, payload := int(le.Uint32(h[4:])), le.Uint64(h[8:])
	if h[0] != frameVersion || keyLen > maxKeyLen || rank > maxRank || payload > maxPayloadLen {
		metricDecodeErrors.Inc()
		return "", tok, nil, fmt.Errorf("rendezvous: unreadable frame header % x", h)
	}
	// A peer must have sent a bufferful of a frame (or all of it) before
	// anything is allocated on its word; head fits by the limits above.
	head := headerLen + 8*rank + keyLen
	h, err = r.Peek(min(head+int(payload), readBufSize))
	if err != nil {
		return "", tok, nil, err
	}
	dims := make([]int, rank)
	for i := range dims {
		dims[i] = int(int64(le.Uint64(h[headerLen+8*i:])))
	}
	key = string(h[headerLen+8*rank : head])
	r.Discard(head)
	// skip drops what is left of the payload and fails only this key.
	skip := func(left int, why error) (string, exec.Token, error, error) {
		metricDecodeErrors.Inc()
		_, err := r.Discard(left)
		return key, exec.Token{}, fmt.Errorf("rendezvous: key %q: bad frame: %w", key, why), err
	}

	tok.Dead = flags&flagDead != 0
	rem := int(payload)
	var elem int
	switch {
	case flags&flagTensor == 0 && rank == 0 && rem == 0:
		return key, tok, nil, nil
	case flags&flagTensor == 0:
		return skip(rem, fmt.Errorf("no tensor, yet rank %d and %d payload bytes", rank, rem))
	case dtype == tensor.Float || dtype == tensor.Int:
		elem = 8
	case dtype == tensor.Bool:
		elem = 1
	case dtype == tensor.Str:
		// The cold path: the payload is read whole, then split.
		raw := make([]byte, rem)
		if _, err := io.ReadFull(r, raw); err != nil {
			return "", exec.Token{}, nil, err
		}
		var strs []string
		for len(raw) >= 4 && uint64(le.Uint32(raw)) <= uint64(len(raw)-4) {
			n := 4 + int(le.Uint32(raw))
			strs = append(strs, string(raw[4:n]))
			raw = raw[n:]
		}
		if len(raw) != 0 {
			return skip(0, fmt.Errorf("string payload ends in %d stray bytes", len(raw)))
		}
		if err := tensor.CheckShape(dims, len(strs)); err != nil {
			return skip(0, err)
		}
		tok.Val.T, tok.Owned = tensor.FromStrings(strs, dims...), true
		return key, tok, nil, nil
	default:
		return skip(rem, fmt.Errorf("unknown dtype %d", int(dtype)))
	}
	if rem%elem != 0 {
		return skip(rem, fmt.Errorf("%d payload bytes are not whole %d-byte elements", rem, elem))
	}
	if err := tensor.CheckShape(dims, rem/elem); err != nil {
		return skip(rem, err)
	}
	t := tensor.Alloc(dtype, dims...)
	if dtype == tensor.Bool {
		err = readEach(r, rem, 1, func(b []byte, at int) {
			for i, x := range b {
				t.B[at+i] = x != 0
			}
		})
	} else {
		err = readNumeric(r, t)
	}
	if err != nil {
		tensor.Recycle(t)
		return "", exec.Token{}, nil, err
	}
	tok.Val.T, tok.Owned = t, true
	return key, tok, nil, nil
}

// readEach hands decode the next rem bytes of r as they arrive, whole
// elements of elem bytes at a time, with the index of the first: what is
// buffered, or when less than one element is, one element, which makes the
// reader fill.
func readEach(r *bufio.Reader, rem, elem int, decode func(b []byte, at int)) error {
	for at := 0; rem > 0; {
		n := min(rem, max(r.Buffered()/elem*elem, elem))
		b, err := r.Peek(n)
		if err != nil {
			return err
		}
		decode(b, at)
		r.Discard(n)
		at += n / elem
		rem -= n
	}
	return nil
}
