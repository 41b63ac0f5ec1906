// Package exec implements the paper's local executor (§4.3): a dynamic
// dataflow machine in which every value is a tagged token (value, is_dead,
// tag), frames are dynamically allocated execution contexts created per
// loop iteration, and the control-flow primitives Switch, Merge, Enter,
// Exit, and NextIteration are evaluated by the rules of Figure 5.
//
// The executor starts from source nodes and repeatedly executes nodes that
// become ready. A node other than Merge becomes ready when all its inputs
// (in its frame and iteration) are available; Merge becomes ready when any
// live data input arrives, or when all of its data inputs are dead. Ops with
// a dead input skip their computation and propagate deadness downstream,
// which is what makes distributed execution of untaken branches work.
//
// Multiple iterations of a loop may run concurrently, bounded by the
// frame's parallel-iterations window (default 32, the value the paper
// reports works well).
//
// The steady-state path is dense: plans give every node a compact index
// into one flat metadata table, iteration state lives in recycled flat
// slices addressed by that index (a ring buffer of iterations per frame,
// exact because the window bounds liveness), and tensor buffers whose sole
// reference the executor can prove are forwarded into kernel outputs or
// recycled through the tensor pool. Executing a node allocates nothing of
// its own: output tokens, the kernel context and the kernel's result slice
// all live in scratch the caller supplies (valid until that caller's next
// node; a kernel must not retain its context). A pool buffer returns to the
// pool when its last reference is released: the dispatcher counts the
// references of every buffer with more than one consumer, follows a buffer
// saved on a stack to its pop, and leaves to the collector only what a
// holder (a fetch, a variable, a TensorArray, a kernel that may alias its
// input) keeps. See README.md in this directory for the design, the scratch
// lifetimes and the buffer-ownership rule.
package exec

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"

	// Register the stack and TensorArray kernels with the op registry;
	// every executor must be able to run them.
	_ "repro/internal/stack"
	_ "repro/internal/tarray"
)

// Token is a tagged value: the unit that flows along edges at run time. The
// tag (frame path + iteration) is implicit in where the token is delivered;
// Dead marks tokens on untaken conditional branches.
type Token struct {
	Val  ops.Value
	Dead bool
	// Owned marks a token whose holder has the only reference to its tensor
	// buffer: a fresh kernel output on its way to a sole consumer, or a
	// counted buffer whose other references have all been released. An owned
	// buffer may be forwarded into a kernel's output or recycled into the
	// tensor pool. Across a Send/Recv pair ownership moves with the token: a
	// rendezvous must deliver an Owned token only when no reference survives
	// on the sending side. See internal/exec/README.md for the ownership rule.
	Owned bool
	// ref, when not zero, makes this token one counted reference to its
	// buffer: it indexes the count the delivering executor's dispatcher keeps
	// (executor.refs). Only that dispatcher reads or writes it; a token that
	// leaves the executor (Send, a fetch) leaves without it.
	ref int32
}

// Feeder resolves placeholder feeds by node name: the one way a step is fed.
// Pre-compiled callables supply a positional implementation so the
// steady-state serving path performs no map construction or hashing; a feed
// map converts with MapFeeder.
type Feeder interface {
	// Feed returns the value fed for the named placeholder, if any.
	Feed(name string) (*tensor.Tensor, bool)
}

// MapFeeder is a feed map as a Feeder (a conversion: MapFeeder(m)). A nil map
// feeds nothing.
type MapFeeder map[string]*tensor.Tensor

func (m MapFeeder) Feed(name string) (*tensor.Tensor, bool) {
	t, ok := m[name]
	return t, ok
}

// Rendezvous exchanges tokens between executors (the Send/Recv mechanism of
// §3). Keys incorporate the dynamic frame tag so each iteration's transfer
// is distinct.
type Rendezvous interface {
	// Send publishes the token under key. It must not block indefinitely.
	Send(key string, t Token) error
	// Recv blocks until a token is published under key, or cancel is
	// closed (in which case it returns an error).
	Recv(key string, cancel <-chan struct{}) (Token, error)
}

// Runner executes kernels for a device. Implementations may serialize
// kernels (modeling an accelerator's compute stream) and record timelines.
type Runner interface {
	// RunKernel runs fn; kind is "compute" for ordinary kernels. It
	// blocks until fn has run.
	RunKernel(node string, op string, fn func())
}

// SendKeyAttr and frame tags compose rendezvous keys.
const SendKeyAttr = "key"

// RendezvousKey builds the dynamic rendezvous key for a Send/Recv pair:
// the static edge key plus the dynamic frame tag, so that each execution of
// the same op gets a distinct key (§3).
func RendezvousKey(staticKey, frameTag string) string {
	return staticKey + "@" + frameTag
}

// FetchError describes a failed fetch.
type FetchError struct {
	Output graph.Output
	Reason string
}

func (e *FetchError) Error() string {
	return fmt.Sprintf("exec: fetch %s: %s", e.Output, e.Reason)
}
