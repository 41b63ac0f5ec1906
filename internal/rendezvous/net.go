package rendezvous

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/exec"
	"repro/internal/tensor"
)

// dialAttempts x dialBackoff bounds how long a Send waits for a peer that
// has not come up yet (peers of a cluster may start in any order). Each
// attempt's actual wait is backoff.Jitter(dialBackoff), so the expected
// total stays dialAttempts x dialBackoff while workers booting together
// don't redial each other in lockstep.
const (
	dialAttempts = 50
	dialBackoff  = 100 * time.Millisecond
	dialTimeout  = time.Second
)

// peerConn is the outbound connection to one peer worker. Each peer has its
// own mutex so a dial or encode in flight to a slow peer never delays sends
// to any other peer (Net.mu guards only the lookup tables).
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte // encode scratch, reused frame after frame
	// iov is the frame being written, head then payload, and out what of it
	// is still to go: net.Buffers consumes the slice it writes, and a
	// pointer to it handed to the connection escapes, so both live here and
	// a write allocates nothing.
	iov [2][]byte
	out net.Buffers
}

// write writes one frame, head then payload, with a single writev.
func (pc *peerConn) write(head, payload []byte) error {
	pc.iov = [2][]byte{head, payload}
	pc.out = pc.iov[:]
	_, err := pc.out.WriteTo(pc.conn)
	pc.iov = [2][]byte{} // an error leaves the payload's reference behind
	return err
}

// Net is a TCP rendezvous for multi-process execution: each worker runs a
// server; Send routes to the destination worker parsed from the key's
// ";dstw=<worker>;" component (the partitioner embeds it); Recv waits on a
// local table.
//
// Keys may carry a scope prefix ("<scope>|<key>", see Scope): each scope is
// an independent key table with its own abort, which is how the cluster
// runtime gives every step a private key space over the shared, long-lived
// transport — aborting or releasing one step cannot poison the next.
type Net struct {
	self string

	mu        sync.Mutex
	peers     map[string]string    // worker -> address
	conns     map[string]*peerConn // worker -> outbound connection
	raw       map[string]net.Conn  // worker -> established socket (for eviction)
	live      map[net.Conn]struct{}
	scopes    map[string]*Local
	accepted  map[net.Conn]struct{}
	latency   time.Duration
	bandwidth float64
	ln        net.Listener
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// filter, when set, decides whether an incoming frame may be
	// delivered to its scope. The cluster worker uses it to drop stragglers
	// addressed to released steps instead of resurrecting their tables.
	filter atomic.Value // func(scope string) bool

	// Fault injection (SetFaults): a seeded RNG drawn on every remote send
	// decides whether to drop the message or reset the connection first.
	// Its own mutex — never n.mu or a peerConn's — so draws serialize
	// across peers without coupling their send paths.
	faultMu   sync.Mutex
	faultRng  *rand.Rand
	resetProb float64
	dropProb  float64
}

// NewNet starts a worker's rendezvous server on addr (e.g. "127.0.0.1:0").
func NewNet(self, addr string) (*Net, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rendezvous: listen: %w", err)
	}
	n := &Net{
		self:     self,
		peers:    map[string]string{},
		conns:    map[string]*peerConn{},
		raw:      map[string]net.Conn{},
		live:     map[net.Conn]struct{}{},
		scopes:   map[string]*Local{},
		accepted: map[net.Conn]struct{}{},
		ln:       ln,
		closed:   make(chan struct{}),
	}
	n.wg.Add(1)
	go n.serve()
	return n, nil
}

// Addr returns the listening address.
func (n *Net) Addr() string { return n.ln.Addr().String() }

// AddPeer registers (or updates) a peer worker's address. When the address
// changes (the peer restarted elsewhere), the established connection to the
// previous incarnation is closed immediately: a write onto a
// half-dead socket can succeed into the void, silently losing the first
// sends of the next step, so the stale conn must not survive the update.
func (n *Net) AddPeer(worker, addr string) {
	n.mu.Lock()
	old, had := n.peers[worker]
	n.peers[worker] = addr
	var stale net.Conn
	if had && old != addr {
		stale = n.raw[worker]
	}
	n.mu.Unlock()
	if stale != nil {
		stale.Close() // the next send's write fails, evicts, and redials
	}
}

// SetFabric injects simulated network characteristics: latency is added to
// every delivery and bandwidth (bytes/second, 0 = infinite) adds a
// size-proportional delay, exactly as in the in-process Local. It applies to
// scopes created after the call (tests set it on a worker's Net before any
// step runs).
// dcfvet:allow deadapi=latency and bandwidth hook that schedule-perturbation testing builds on; nothing a client sends reaches it
func (n *Net) SetFabric(latency time.Duration, bandwidth float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = latency
	n.bandwidth = bandwidth
}

// SetFaults arms probabilistic fault injection on the remote send path,
// extending SetFabric's latency/bandwidth shaping to the failure modes a
// router must survive: each outbound wire message is dropped with dropProb
// (silent loss — the receiver's Recv waits until something aborts it,
// modeling a partition that eats packets) and, independently, the
// established connection is reset with resetProb before the write (the
// write observes a dead socket and must take the evict-and-redial
// recovery path). Decisions come from a private RNG seeded with seed, so a
// given (seed, probs) config yields the same drop/reset decision sequence
// on every run — fleet tests assert router behavior against it without
// real process kills. Both probs zero disarms injection.
// dcfvet:allow deadapi=fault-injection hook that schedule-perturbation testing builds on; nothing a client sends reaches it
func (n *Net) SetFaults(seed int64, resetProb, dropProb float64) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	if resetProb <= 0 && dropProb <= 0 {
		n.faultRng = nil
		n.resetProb, n.dropProb = 0, 0
		return
	}
	n.faultRng = rand.New(rand.NewSource(seed))
	n.resetProb, n.dropProb = resetProb, dropProb
}

// drawFaults consumes one injection decision for an outbound message.
func (n *Net) drawFaults() (drop, reset bool) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	if n.faultRng == nil {
		return false, false
	}
	if n.dropProb > 0 && n.faultRng.Float64() < n.dropProb {
		drop = true
	}
	if n.resetProb > 0 && n.faultRng.Float64() < n.resetProb {
		reset = true
	}
	return drop, reset
}

// SetScopeFilter installs the delivery filter (nil accepts everything).
func (n *Net) SetScopeFilter(f func(scope string) bool) {
	n.filter.Store(f)
}

// Close shuts the server and all connections down and aborts every scope.
func (n *Net) Close() {
	n.closeOnce.Do(func() { close(n.closed) })
	n.ln.Close()
	n.mu.Lock()
	for c := range n.live {
		c.Close()
	}
	for c := range n.accepted {
		c.Close()
	}
	n.mu.Unlock()
	n.Abort(fmt.Errorf("rendezvous: closed"))
	n.wg.Wait()
}

// scopeOf splits the scope prefix from a key ("" for unscoped keys).
func scopeOf(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return ""
}

// scopeTable returns the key table of one scope, creating it on demand
// unless the scope filter rejects the scope (ok=false). The filter check
// and creation are atomic under n.mu, so neither a remote straggler nor a
// local operation from a still-draining aborted step can resurrect a table
// that ReleaseScope just dropped — nothing would ever reclaim it. (Filter
// callbacks must not call back into Net.)
func (n *Net) scopeTable(scope string) (*Local, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.scopes[scope]
	if ok {
		return s, true
	}
	if f, _ := n.filter.Load().(func(string) bool); f != nil && !f(scope) {
		return nil, false
	}
	s = NewLocal(n.latency, n.bandwidth)
	n.scopes[scope] = s
	select {
	case <-n.closed:
		defer s.Abort(fmt.Errorf("rendezvous: closed"))
	default:
	}
	return s, true
}

// AbortScope fails all pending and future operations of one scope, leaving
// every other scope untouched (the per-step mirror of Local.Abort). A scope
// the filter has retired is a no-op: its operations already fail fast.
func (n *Net) AbortScope(scope string, err error) {
	if s, ok := n.scopeTable(scope); ok {
		s.Abort(err)
	}
}

// ReleaseScopesIf drops every live scope table the predicate selects,
// reclaiming tokens that were published but never consumed (e.g. by an
// aborted step) — O(live tables), not O(name space), so callers can retire
// "everything at or below a watermark" without replaying step history. The
// predicate must not call back into Net (n.mu is held).
func (n *Net) ReleaseScopesIf(pred func(scope string) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range n.scopes {
		if pred(name) {
			delete(n.scopes, name)
		}
	}
}

// ScopeCount reports the number of live scope tables (for leak tests).
func (n *Net) ScopeCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.scopes)
}

func (n *Net) serve() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		// Close marks closed before it sweeps accepted under n.mu, so a
		// connection accepted around that sweep is closed by one side or
		// the other — never left open with a reader Close then waits on.
		n.mu.Lock()
		select {
		case <-n.closed:
			n.mu.Unlock()
			conn.Close()
			return
		default:
		}
		n.accepted[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				conn.Close()
				n.mu.Lock()
				delete(n.accepted, conn)
				n.mu.Unlock()
			}()
			// No preface or an unreadable frame: hang up, touching no scope.
			r := bufio.NewReaderSize(conn, readBufSize)
			if b, err := r.Peek(len(preface)); err != nil || string(b) != preface {
				return
			}
			r.Discard(len(preface))
			for {
				key, tok, bad, err := readFrame(r)
				if err != nil {
					return
				}
				n.deliver(key, tok, bad)
			}
		}()
	}
}

// deliver routes one received frame into its scope's table (dropping
// stragglers addressed to filter-retired scopes; see scopeTable). A bad
// frame poisons only that scope: its receivers observe the error instead of
// a nil tensor. An undeliverable token, ours alone, goes back to the pool.
func (n *Net) deliver(key string, tok exec.Token, bad error) {
	metricFramesRecv.Inc()
	s, ok := n.scopeTable(scopeOf(key))
	switch {
	case !ok: // straggler for a released step
	case bad != nil:
		s.Abort(bad)
	case s.Send(key, tok) == nil:
		return
	}
	tensor.Recycle(tok.Val.T)
}

// DstWorker extracts the destination worker from a rendezvous key.
func DstWorker(key string) string {
	for more := true; more; {
		var part string
		part, key, more = strings.Cut(key, ";")
		if w, ok := strings.CutPrefix(part, "dstw="); ok {
			w, _, _ = strings.Cut(w, "@") // strip any dynamic tag suffix
			return w
		}
	}
	return ""
}

// peerFor returns the destination's connection slot, creating it if needed.
func (n *Net) peerFor(dst string) (*peerConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, known := n.peers[dst]; !known {
		return nil, fmt.Errorf("rendezvous: unknown worker %q", dst)
	}
	pc, ok := n.conns[dst]
	if !ok {
		pc = &peerConn{}
		n.conns[dst] = pc
	}
	return pc, nil
}

// dialLocked establishes pc's connection (pc.mu held) and opens it with the
// wire preface. Peers may come up in any order, so a first dial retries
// briefly — but the backoff respects Close and the caller's cancel signal
// instead of sleeping blind. The recovery path after a failed write passes
// attempts == 1: waiting out the boot-order backoff there would stall the
// failing step for seconds.
func (n *Net) dialLocked(pc *peerConn, dst string, attempts int, cancel <-chan struct{}) error {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff.Jitter(dialBackoff)):
			case <-n.closed:
				return fmt.Errorf("rendezvous: dial %s: closed", dst)
			case <-cancel:
				return fmt.Errorf("rendezvous: dial %s: aborted", dst)
			}
		}
		// Looked up per attempt: the peer may have re-registered at a new
		// address while we were backing off (worker restart).
		n.mu.Lock()
		addr := n.peers[dst]
		n.mu.Unlock()
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			if _, err = io.WriteString(conn, preface); err == nil {
				pc.conn = conn
				n.mu.Lock()
				n.live[conn] = struct{}{}
				n.raw[dst] = conn
				n.mu.Unlock()
				return nil
			}
			conn.Close()
		}
		metricDialFailures.Inc()
		lastErr = err
	}
	return fmt.Errorf("rendezvous: dial %s: %w", dst, lastErr)
}

// evictLocked drops pc's broken connection (pc.mu held) so the next send
// redials instead of failing forever on a dead socket.
func (n *Net) evictLocked(pc *peerConn, dst string) {
	if pc.conn != nil {
		pc.conn.Close()
		n.mu.Lock()
		delete(n.live, pc.conn)
		if n.raw[dst] == pc.conn {
			delete(n.raw, dst)
		}
		n.mu.Unlock()
	}
	pc.conn = nil
}

// Send routes the token to the destination worker. A nil return consumes an
// Owned token: a local destination receives it as is (the sole reference
// moves), a remote one a copy, and the buffer is recycled once its bytes are
// written. Callers may send a tensor without Owned any number of times.
func (n *Net) Send(key string, t exec.Token) error {
	return n.send(key, t, nil)
}

func (n *Net) send(key string, t exec.Token, cancel <-chan struct{}) error {
	dst := DstWorker(key)
	if dst == "" || dst == n.self {
		local, ok := n.scopeTable(scopeOf(key))
		if !ok {
			return fmt.Errorf("rendezvous: send of %q: scope released", key)
		}
		return local.Send(key, t)
	}
	if t.Val.R != nil {
		return fmt.Errorf("rendezvous: resource handles cannot cross workers (key %q)", key)
	}
	pc, err := n.peerFor(dst)
	if err != nil {
		return err
	}
	drop, reset := n.drawFaults()
	if drop {
		// Injected silent loss: report success and deliver nothing, like a
		// network that ate the segment after the local write succeeded.
		consumed(t)
		return nil
	}
	// Only this peer's lock is held across dial and write: a stalled or
	// down peer blocks its own senders, never sends to other peers, and
	// never Close.
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if reset && pc.conn != nil {
		// Injected connection reset: kill the established socket so the
		// write below fails and exercises the evict-and-redial path.
		pc.conn.Close()
	}
	if pc.conn == nil {
		if err := n.dialLocked(pc, dst, dialAttempts, cancel); err != nil {
			return err
		}
	}
	head, payload, err := appendFrame(pc.buf[:0], key, t)
	if err != nil {
		return err
	}
	if cap(head) <= keepScratch {
		pc.buf = head
	}
	// One writev per frame: control tokens are never held back for a batch.
	if err = pc.write(head, payload); err != nil {
		// The stream is broken mid-frame: evict the connection and redial
		// once (the peer may have restarted; a dead one must fail promptly).
		n.evictLocked(pc, dst)
		if n.dialLocked(pc, dst, 1, nil) != nil {
			return fmt.Errorf("rendezvous: send to %s: %w", dst, err)
		}
		if err = pc.write(head, payload); err != nil {
			n.evictLocked(pc, dst)
			return fmt.Errorf("rendezvous: send to %s: %w", dst, err)
		}
	}
	metricFramesSent.Inc()
	metricBytesSent.Add(int64(len(head) + len(payload)))
	consumed(t)
	return nil
}

// consumed recycles the buffer of a sent token that the sender alone held.
func consumed(t exec.Token) {
	if t.Owned {
		tensor.Recycle(t.Val.T)
	}
}

// Recv waits for a token on the local table of the key's scope.
func (n *Net) Recv(key string, cancel <-chan struct{}) (exec.Token, error) {
	s, ok := n.scopeTable(scopeOf(key))
	if !ok {
		return exec.Token{}, fmt.Errorf("rendezvous: recv of %q: scope released", key)
	}
	return s.Recv(key, cancel)
}

// Abort fails pending operations in every scope.
func (n *Net) Abort(err error) {
	n.mu.Lock()
	scopes := make([]*Local, 0, len(n.scopes))
	for _, s := range n.scopes {
		scopes = append(scopes, s)
	}
	n.mu.Unlock()
	for _, s := range scopes {
		s.Abort(err)
	}
}

// Scope returns the per-step view of the rendezvous used by executors: keys
// gain the "<name>|" prefix (so they land in the scope's private table on
// every worker), Abort fails only this scope, and a Send blocked in the
// dial-retry loop is released when the scope aborts. Scope names must not
// contain '|' or ';'.
func (n *Net) Scope(name string) *NetScope {
	return &NetScope{n: n, name: name}
}

// NetScope is one scope's view of a Net (an exec.Rendezvous).
type NetScope struct {
	n    *Net
	name string
}

// Send publishes under the scoped key; if the destination is remote and
// down, the dial retry aborts as soon as the scope does.
func (s *NetScope) Send(key string, t exec.Token) error {
	local, ok := s.n.scopeTable(s.name)
	if !ok {
		return fmt.Errorf("rendezvous: send of %q: scope %q released", key, s.name)
	}
	return s.n.send(s.name+"|"+key, t, local.abort)
}

// Recv waits on the scope's table.
func (s *NetScope) Recv(key string, cancel <-chan struct{}) (exec.Token, error) {
	return s.n.Recv(s.name+"|"+key, cancel)
}

// Abort fails this scope's pending and future operations.
func (s *NetScope) Abort(err error) { s.n.AbortScope(s.name, err) }
