// Send/Recv communication checks. Partitioning rewrites every cross-device
// edge into a Send/Recv pair sharing a rendezvous key; a key with no peer
// blocks its Recv forever, a duplicated key races two producers into one
// slot, and a cycle in the cross-partition dependency relation (that does
// not pass through NextIteration) deadlocks the rendezvous — each partition
// waits on a Recv whose Send is downstream of its own unsent value.
package verify

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/graph"
)

// checkSendRecv validates rendezvous key pairing over the checked node set.
// In Complete mode every key must have exactly one Send and one Recv; in
// partial mode (one worker's slice) only collisions are detectable — the
// peers live on other workers.
func (c *checker) checkSendRecv() {
	sends := map[string][]*graph.Node{}
	recvs := map[string][]*graph.Node{}
	for _, n := range c.nodes {
		switch n.Op() {
		case "Send", "Recv":
			key := n.AttrString(exec.SendKeyAttr)
			if key == "" {
				c.addf(n, -1, "sendrecv-no-key", "%s has no rendezvous key attribute", n.Op())
				continue
			}
			if n.Op() == "Send" {
				sends[key] = append(sends[key], n)
			} else {
				recvs[key] = append(recvs[key], n)
			}
		}
	}
	if len(sends) == 0 && len(recvs) == 0 {
		return
	}
	keys := map[string]bool{}
	for k := range sends {
		keys[k] = true
	}
	for k := range recvs {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		s, r := sends[k], recvs[k]
		if len(s) > 1 {
			c.addf(s[1], -1, "sendrecv-dup", "rendezvous key %q has %d Sends (first: %q); keys must be unique", k, len(s), s[0].Name())
		}
		if len(r) > 1 {
			c.addf(r[1], -1, "sendrecv-dup", "rendezvous key %q has %d Recvs (first: %q); keys must be unique", k, len(r), r[0].Name())
		}
		if !c.opts.Complete {
			continue
		}
		if len(s) == 0 {
			c.addf(r[0], -1, "recv-unpaired", "rendezvous key %q has a Recv but no Send; the Recv would block forever", k)
		}
		if len(r) == 0 {
			c.addf(s[0], -1, "send-unpaired", "rendezvous key %q has a Send but no Recv; the value would never be consumed", k)
		}
	}
	if c.opts.Complete {
		c.checkRendezvousCycles(sends, recvs)
	}
}

// checkRendezvousCycles links each Recv to its Send and re-runs the
// topological sort: any cycle that appears only once communication edges
// are added is a cross-partition deadlock — no executor alone ever stalls,
// but the set of partitions waits on itself through the rendezvous.
func (c *checker) checkRendezvousCycles(sends, recvs map[string][]*graph.Node) {
	extra := map[int][]*graph.Node{} // recv node id -> its send producers
	for k, rs := range recvs {
		ss := sends[k]
		if len(ss) == 0 {
			continue
		}
		for _, r := range rs {
			extra[r.ID()] = append(extra[r.ID()], ss[0])
		}
	}
	if len(extra) == 0 {
		return
	}
	_, stuck := topoNodes(c.nodes, extra)
	for _, n := range stuck {
		// Report only the communication endpoints on the cycle; the
		// intermediate compute nodes would drown the signal.
		if n.Op() == "Send" || n.Op() == "Recv" {
			dev := n.Device()
			where := ""
			if dev != "" {
				where = fmt.Sprintf(" (device %q)", dev)
			}
			c.addf(n, -1, "rendezvous-cycle",
				"on a cross-partition cycle%s: the rendezvous would deadlock waiting on its own downstream value", where)
		}
	}
}

// CheckPartitions verifies a partitioned program as a whole: one Check of
// the union of every partition's nodes in complete mode, which adds
// Send/Recv pairing and rendezvous-cycle analysis to the per-node checks.
// It does not check each slice on its own: partition.Validate does that on
// the driver (every input lies in its node's partition), and each worker
// checks its own slice in partial mode when it registers the graph. The
// parts map is keyed by device, as produced by partition.Partition.
func CheckPartitions(g *graph.Graph, parts map[string][]*graph.Node) Diagnostics {
	var all []*graph.Node
	devs := make([]string, 0, len(parts))
	for dev := range parts {
		devs = append(devs, dev)
	}
	sort.Strings(devs)
	for _, dev := range devs {
		all = append(all, parts[dev]...)
	}
	return Check(g, Options{Nodes: all, Complete: true})
}
