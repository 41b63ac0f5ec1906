// Package rendezvous implements the Send/Recv tensor exchange of §3: a
// sender publishes a tensor under a rendezvous key; the receiver pulls it,
// blocking until it has been produced. Keys incorporate the dynamic frame
// tag, so each iteration of a loop produces a distinct key, and is_dead
// signals travel with the payload so deadness propagates across devices
// (§4.4).
//
// Net (net.go) is the transport every worker runs: real sockets between
// workers, and one Local per step scope holding what has arrived and what
// a sender on the same worker published. Local is that in-process key
// table, with optional simulated latency and bandwidth.
//
// # Buffer ownership
//
// Ownership of a tensor buffer moves through a rendezvous with the token
// (exec.Token.Owned, see internal/exec/README.md). Local hands a token to
// the receiver unchanged, so an Owned buffer's sole reference transfers.
// Net recycles an Owned token's buffer into the tensor pool once its bytes
// are written to the peer (or dropped by fault injection), and every token
// it decodes from the wire arrives Owned, in a buffer drawn from the pool.
// A token sent without Owned is never recycled: the caller keeps its tensor
// and may send it again.
//
// # Wire format (net.go, frame.go)
//
// A connection is one-way: the dialer writes, the acceptor reads. It opens
// with the 8-byte preface "dcfwire" + version byte (1); an acceptor that
// reads anything else closes the connection before touching any scope.
// Then come frames, one token each, all integers little-endian. A frame is
// written with one writev: the header (with dims and key), then the
// payload. On a little-endian host a float or int payload is the tensor's
// backing array as it lies in memory, sent and received with no pass over
// its elements (frame_le.go; a big-endian host encodes, frame_be.go).
//
//	offset  size     field
//	0       1        version (1)
//	1       1        flags: bit 0 dead, bit 1 tensor present
//	2       1        dtype (tensor.DType: 0 float, 1 int, 2 bool, 3 string)
//	3       1        rank, at most 32
//	4       4        key length in bytes, at most 32 KiB
//	8       8        payload length in bytes, at most 1 GiB
//	16      8*rank   dims, int64 each
//	...     keylen   key ("<scope>|<static key>@<frame tag>")
//	...     payload  float: IEEE-754 bits, 8 B each; int: 8 B each;
//	                 bool: 1 B each; string: uint32 length + bytes, each
//
// The reader checks the header against these limits, the dims with
// tensor.CheckShape, and dims x element size against the payload length,
// and waits for 64 KiB of the frame (or all of it) before it allocates
// anything; then it reads a numeric payload straight into the pooled tensor. A frame that fails a limit (its lengths
// cannot be trusted) costs its connection and nothing else; one whose
// extent is readable but whose contents lie (unknown dtype, shape/payload
// mismatch, malformed strings) is skipped and aborts only its key's scope.
// Resource handles never cross workers; the control plane
// (internal/cluster) is a separate gob stream.
package rendezvous

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
)

// Local is an in-process rendezvous shared by several executors. The zero
// value is not usable; call NewLocal.
type Local struct {
	// Latency is added to every transfer (one-way), modeling the network
	// fabric between machines.
	Latency time.Duration
	// Bandwidth, if nonzero, adds bytes/Bandwidth seconds per transfer.
	Bandwidth float64

	mu    sync.Mutex
	slots map[string]*slot
	err   error
	abort chan struct{}
}

type slot struct {
	tok   exec.Token
	full  bool
	ready chan struct{}
}

// NewLocal returns an empty in-process rendezvous.
func NewLocal(latency time.Duration, bandwidth float64) *Local {
	return &Local{
		Latency:   latency,
		Bandwidth: bandwidth,
		slots:     map[string]*slot{},
		abort:     make(chan struct{}),
	}
}

func (l *Local) slotFor(key string) *slot {
	s, ok := l.slots[key]
	if !ok {
		s = &slot{ready: make(chan struct{})}
		l.slots[key] = s
	}
	return s
}

// Send publishes a token under key. Publishing a key twice is an error
// (keys are unique per dynamic edge instance).
func (l *Local) Send(key string, t exec.Token) error {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	s := l.slotFor(key)
	if s.full {
		l.mu.Unlock()
		return fmt.Errorf("rendezvous: duplicate send for key %q", key)
	}
	s.tok = t
	s.full = true
	close(s.ready)
	l.mu.Unlock()
	return nil
}

// Recv blocks until key is published, simulating transfer time, or until
// cancel (or a cluster-wide abort) fires.
func (l *Local) Recv(key string, cancel <-chan struct{}) (exec.Token, error) {
	l.mu.Lock()
	if l.err != nil {
		defer l.mu.Unlock()
		return exec.Token{}, l.err
	}
	s := l.slotFor(key)
	l.mu.Unlock()
	select {
	case <-s.ready:
		// Each key is consumed exactly once; reclaim the slot so long
		// loops do not grow the table without bound.
		l.mu.Lock()
		delete(l.slots, key)
		l.mu.Unlock()
	case <-cancel:
		return exec.Token{}, fmt.Errorf("rendezvous: recv of %q canceled", key)
	case <-l.abort:
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("rendezvous: aborted")
		}
		return exec.Token{}, err
	}
	delay := l.Latency
	if l.Bandwidth > 0 && s.tok.Val.T != nil {
		delay += time.Duration(float64(s.tok.Val.T.NumBytes()) / l.Bandwidth * float64(time.Second))
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-cancel:
			return exec.Token{}, fmt.Errorf("rendezvous: recv of %q canceled", key)
		}
	}
	return s.tok, nil
}

// Abort fails all pending and future operations with err (used when one
// partition's executor dies so its peers do not block forever).
func (l *Local) Abort(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err == nil {
		err = fmt.Errorf("rendezvous: aborted")
	}
	l.err = err
	close(l.abort)
}
