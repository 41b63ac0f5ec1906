package cluster

import (
	"encoding/gob"
	"net"
	"strings"
	"testing"
	"time"
)

// TestCallFailsOnReplyOfAnotherKind has a fake worker answer a Checkpoint
// with a registration ack: the call must fail promptly with an error rather
// than wait for a reply that will never come.
func TestCallFailsOnReplyOfAnotherKind(t *testing.T) {
	drv, wrk := net.Pipe()
	served := make(chan struct{})
	defer func() { drv.Close(); <-served }()
	go func() {
		defer close(served)
		defer wrk.Close()
		dec, enc := gob.NewDecoder(wrk), gob.NewEncoder(wrk)
		var env Envelope
		for dec.Decode(&env) == nil {
			var resp RespEnvelope
			switch {
			case env.Hello != nil:
				resp.Hello = &HelloResp{Worker: "fake"}
			case env.Ckpt != nil:
				resp.Reg = &RegResp{}
			}
			if enc.Encode(&resp) != nil {
				return
			}
			env = Envelope{}
		}
	}()
	c, err := newClient("pipe", drv, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Checkpoint(1, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), wrongReply) {
			t.Fatalf("Checkpoint answered with a RegResp: err %v, want %q", err, wrongReply)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Checkpoint still waiting 5s after a reply of another kind")
	}
	if !c.Alive() {
		t.Fatalf("a reply of another kind killed the connection: %v", c.Err())
	}
}
