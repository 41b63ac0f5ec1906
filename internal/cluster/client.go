package cluster

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is the driver's handle on one worker daemon: it multiplexes
// registrations, step launches, and aborts over a single control
// connection, matching asynchronous step responses back to their callers by
// (graph, step). A Client whose connection dies fails every outstanding
// step with the transport error and stays dead; the driver redials a fresh
// one (see distrib.Fleet) and re-registers.
type Client struct {
	addr     string
	name     string
	dataAddr string

	wmu  sync.Mutex // serializes request writes
	conn net.Conn
	enc  *gob.Encoder

	pmu     sync.Mutex
	pending map[stepKey]chan<- *StepResp // each launched step's caller channel
	callCh  chan *RespEnvelope           // reply slot of the call in flight, if any
	helloCh chan *HelloResp
	err     error
	done    chan struct{}

	rpcMu sync.Mutex // one call (register/checkpoint/restore) at a time
	wg    sync.WaitGroup
}

type stepKey struct {
	gid  uint64
	step uint64
}

// HelloTimeout is DialWorker's bound on the control-connection handshake.
const HelloTimeout = 10 * time.Second

// DialWorker connects to a worker daemon's control address and performs the
// hello handshake, learning the worker's name and data-plane address.
func DialWorker(addr string) (*Client, error) {
	return DialWorkerTimeout(addr, HelloTimeout)
}

// DialWorkerTimeout is DialWorker with a caller-chosen connect/handshake
// bound. Liveness probes use a short timeout so checking a dead daemon does
// not stall recovery for the full default handshake window.
func DialWorkerTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial worker %s: %w", addr, err)
	}
	return newClient(addr, conn, timeout)
}

// newClient runs the hello handshake over an open control connection.
func newClient(addr string, conn net.Conn, timeout time.Duration) (*Client, error) {
	c := &Client{
		addr:    addr,
		conn:    conn,
		enc:     gob.NewEncoder(conn),
		pending: map[stepKey]chan<- *StepResp{},
		helloCh: make(chan *HelloResp, 1),
		done:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.readLoop()
	if err := c.write(&Envelope{Hello: &HelloReq{}}); err != nil {
		c.Close()
		return nil, err
	}
	select {
	case h := <-c.helloCh:
		// Under pmu: readLoop's failure path reads these via workerLabel
		// concurrently with this assignment.
		c.pmu.Lock()
		c.name = h.Worker
		c.dataAddr = h.DataAddr
		c.pmu.Unlock()
	case <-c.done:
		return nil, fmt.Errorf("cluster: hello to %s: %w", addr, c.Err())
	case <-time.After(timeout):
		c.Close()
		return nil, fmt.Errorf("cluster: hello to %s timed out", addr)
	}
	return c, nil
}

// Name returns the worker's self-reported name.
func (c *Client) Name() string {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.name
}

// DataAddr returns the worker's rendezvous data-plane address.
func (c *Client) DataAddr() string {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.dataAddr
}

// Err returns the transport error that killed the client (nil while alive).
func (c *Client) Err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.err
}

// Alive reports whether the control connection is still usable.
func (c *Client) Alive() bool { return c.Err() == nil }

// Close tears the connection down, failing outstanding calls.
func (c *Client) Close() {
	c.conn.Close()
	c.wg.Wait()
}

func (c *Client) write(env *Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.Err(); err != nil {
		return err
	}
	if err := c.enc.Encode(env); err != nil {
		err = fmt.Errorf("cluster: worker %s: %w", c.workerLabel(), err)
		c.fail(err)
		return err
	}
	return nil
}

func (c *Client) workerLabel() string {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.name != "" {
		return c.name
	}
	return c.addr
}

// fail marks the client dead and delivers the error to every waiter: each
// pending step gets its one reply, a synthetic one carrying the error.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.err != nil {
		c.pmu.Unlock()
		return
	}
	c.err = err
	pending := c.pending
	c.pending = map[stepKey]chan<- *StepResp{}
	call := c.callCh
	c.callCh = nil
	name := c.name
	close(c.done)
	c.pmu.Unlock()
	for k, ch := range pending {
		ch <- &StepResp{GraphID: k.gid, Step: k.step, Worker: name, Err: err.Error()}
	}
	if call != nil {
		call <- nil
	}
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	dec := gob.NewDecoder(c.conn)
	for {
		var env RespEnvelope
		if err := dec.Decode(&env); err != nil {
			c.fail(fmt.Errorf("cluster: worker %s connection lost: %w", c.workerLabel(), err))
			c.conn.Close()
			return
		}
		switch {
		case env.Hello != nil:
			select {
			case c.helloCh <- env.Hello:
			default:
			}
		case env.Step != nil:
			k := stepKey{gid: env.Step.GraphID, step: env.Step.Step}
			c.pmu.Lock()
			ch := c.pending[k]
			delete(c.pending, k)
			env.Step.Worker = c.name
			c.pmu.Unlock()
			if ch != nil {
				ch <- env.Step
			}
		default:
			c.pmu.Lock()
			ch := c.callCh
			c.callCh = nil
			c.pmu.Unlock()
			if ch != nil {
				ch <- &env
			}
		}
	}
}

// call sends one register, checkpoint or restore request and waits
// for the worker's reply. rpcMu admits one call at a time, so any reply
// that is neither a hello nor a step's belongs to it; the caller checks
// that the reply is of its own kind. A dead connection fails the call.
func (c *Client) call(what string, env *Envelope) (*RespEnvelope, error) {
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	ch := make(chan *RespEnvelope, 1)
	c.pmu.Lock()
	if c.err != nil {
		err := c.err
		c.pmu.Unlock()
		return nil, err
	}
	c.callCh = ch
	c.pmu.Unlock()
	if err := c.write(env); err != nil {
		return nil, err
	}
	if resp := <-ch; resp != nil {
		return resp, nil
	}
	return nil, c.callErr(what, c.Err().Error())
}

// callErr is the error of a call the worker refused or answered wrongly.
func (c *Client) callErr(what, msg string) error {
	return fmt.Errorf("cluster: %s on %s: %s", what, c.workerLabel(), msg)
}

// wrongReply is the message of a call answered with another kind of reply.
const wrongReply = "worker answered with a reply of another kind"

// Register installs a graph on the worker and waits for its ack.
func (c *Client) Register(rg *RegisterGraph) error {
	r, err := c.call("register", &Envelope{Reg: rg})
	switch {
	case err != nil:
		return err
	case r.Reg == nil:
		return c.callErr("register", wrongReply)
	case r.Reg.Err != "":
		return c.callErr("register", r.Reg.Err)
	}
	return nil
}

// Checkpoint asks the worker for its shard of a distributed checkpoint at
// the given (quiesced) step boundary: a snapshot of every session variable
// the graph holds on this worker.
func (c *Client) Checkpoint(gid, step uint64) ([]VarSnapshot, error) {
	r, err := c.call("checkpoint", &Envelope{Ckpt: &CheckpointReq{GraphID: gid, Step: step}})
	switch {
	case err != nil:
		return nil, err
	case r.Ckpt == nil:
		return nil, c.callErr("checkpoint", wrongReply)
	case r.Ckpt.Err != "":
		return nil, c.callErr("checkpoint", r.Ckpt.Err)
	}
	return r.Ckpt.Vars, nil
}

// Restore installs variable values into the graph's session container on
// the worker (resume-from-checkpoint, or seeding initial state).
func (c *Client) Restore(gid uint64, vars []VarSnapshot) error {
	r, err := c.call("restore", &Envelope{Restore: &RestoreReq{GraphID: gid, Vars: vars}})
	switch {
	case err != nil:
		return err
	case r.Restore == nil:
		return c.callErr("restore", wrongReply)
	case r.Restore.Err != "":
		return c.callErr("restore", r.Restore.Err)
	}
	return nil
}

// StartStep launches a step. Its one reply — the worker's StepResp, or a
// synthetic one carrying the error if the transport is or goes dead — is
// sent on ch, which the caller sizes so that the send never blocks: one
// slot per step it launches on ch is enough.
func (c *Client) StartStep(req *StepReq, ch chan<- *StepResp) {
	k := stepKey{gid: req.GraphID, step: req.Step}
	c.pmu.Lock()
	if c.err != nil {
		err, name := c.err, c.name
		c.pmu.Unlock()
		ch <- &StepResp{GraphID: req.GraphID, Step: req.Step, Worker: name, Err: err.Error()}
		return
	}
	c.pending[k] = ch
	c.pmu.Unlock()
	// A failed write goes through fail(), which answers every pending step,
	// this one included.
	_ = c.write(&Envelope{Step: req})
}

// Abort asks the worker to cancel a running step (best effort).
func (c *Client) Abort(gid, step uint64, reason string) {
	_ = c.write(&Envelope{Abort: &AbortReq{GraphID: gid, Step: step, Reason: reason}})
}

// Release discards a graph registration on the worker (best effort).
func (c *Client) Release(gid uint64) {
	_ = c.write(&Envelope{Release: &ReleaseReq{GraphID: gid}})
}
