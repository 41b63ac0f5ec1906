package partition

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestPlaceAssignsDefault(t *testing.T) {
	b := core.NewBuilder()
	a := b.Scalar(1)
	b.WithDevice("gpu:1", func() { b.Neg(a) })
	Place(b.G, "cpu:0")
	for _, n := range b.G.Nodes() {
		if n.Device() == "" {
			t.Fatalf("unplaced node %s", n.Name())
		}
	}
}

func TestPartitionInsertsSendRecvPairs(t *testing.T) {
	b := core.NewBuilder()
	var x, y graph.Output
	b.WithDevice("d0", func() { x = b.Scalar(2) })
	b.WithDevice("d1", func() { y = b.Op("Square", nil, x) })
	_ = y
	res, err := Partition(b.G, b.G.Nodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res); err != nil {
		t.Fatal(err)
	}
	stats := map[string]int{}
	for _, nodes := range res.Parts {
		for _, n := range nodes {
			stats[n.Op()]++
		}
	}
	if stats["Send"] != 1 || stats["Recv"] != 1 {
		t.Fatalf("send/recv counts: %v", stats)
	}
	// The Send must live on the producer's device, the Recv on the
	// consumer's.
	for dev, nodes := range res.Parts {
		for _, n := range nodes {
			if n.Op() == "Send" && dev != "d0" {
				t.Fatalf("Send on %s", dev)
			}
			if n.Op() == "Recv" && dev != "d1" {
				t.Fatalf("Recv on %s", dev)
			}
		}
	}
}

func TestPartitionDeduplicatesPairs(t *testing.T) {
	// Two consumers of the same value on the same remote device share
	// one Send/Recv pair.
	b := core.NewBuilder()
	var x graph.Output
	b.WithDevice("d0", func() { x = b.Scalar(2) })
	b.WithDevice("d1", func() {
		b.Add(b.Op("Square", nil, x), b.Neg(x))
	})
	res, err := Partition(b.G, b.G.Nodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sends := 0
	for _, nodes := range res.Parts {
		for _, n := range nodes {
			if n.Op() == "Send" {
				sends++
			}
		}
	}
	if sends != 1 {
		t.Fatalf("expected 1 shared Send, got %d", sends)
	}
}

func TestPartitionBuildsControlLoop(t *testing.T) {
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("d0", func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
			func(v []graph.Output) []graph.Output {
				var r graph.Output
				b.WithDevice("d1", func() { r = b.Add(v[0], b.Scalar(1)) })
				return []graph.Output{r}
			},
			core.WhileOpts{},
		)
	})
	_ = outs
	res, err := Partition(b.G, b.G.Nodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res); err != nil {
		t.Fatal(err)
	}
	// d1 must have received a control-loop state machine: Enter, Merge,
	// Switch, NextIteration plus the predicate Recv.
	ops := map[string]int{}
	for _, n := range res.Parts["d1"] {
		ops[n.Op()]++
	}
	for _, op := range []string{"Enter", "Merge", "Switch", "NextIteration"} {
		if ops[op] < 1 {
			t.Fatalf("d1 missing control-loop %s: %v", op, ops)
		}
	}
	if ops["Recv"] < 2 { // data recv + predicate recv
		t.Fatalf("d1 recvs: %v", ops)
	}
}

func TestPartitionKeysCarryWorker(t *testing.T) {
	b := core.NewBuilder()
	var x graph.Output
	b.WithDevice("d0", func() { x = b.Scalar(2) })
	b.WithDevice("d1", func() { b.Op("Square", nil, x) })
	workerOf := func(dev string) string { return "worker_" + dev }
	res, err := Partition(b.G, b.G.Nodes(), workerOf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, nodes := range res.Parts {
		for _, n := range nodes {
			if n.Op() == "Send" {
				key := n.AttrString("key")
				if !strings.Contains(key, "dstw=worker_d1") {
					t.Fatalf("key %q lacks worker route", key)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no Send found")
	}
}

func TestValidateCatchesEscapes(t *testing.T) {
	b := core.NewBuilder()
	a := b.Scalar(1)
	n := b.Neg(a)
	_ = n
	// Hand-build a broken result: consumer in a different partition
	// without Send/Recv.
	res := &Result{Parts: map[string][]*graph.Node{
		"p0": {a.Node},
		"p1": {n.Node},
	}, Devices: []string{"p0", "p1"}}
	if err := Validate(res); err == nil {
		t.Fatal("expected escape error")
	}
}
