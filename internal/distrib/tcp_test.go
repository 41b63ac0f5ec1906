package distrib

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rendezvous"
)

// TestTCPDistributedLoop runs the Figure 6 scenario over real TCP sockets:
// two workers (as two rendezvous servers within this test), the loop driver
// on worker A and the body op on worker B, coordinating only through
// Send/Recv — the same setup cmd/dcfworker runs as separate OS processes.
func TestTCPDistributedLoop(t *testing.T) {
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("wA/cpu", func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(7)) },
			func(v []graph.Output) []graph.Output {
				var r graph.Output
				b.WithDevice("wB/cpu", func() {
					r = b.Add(v[0], b.Scalar(1))
				})
				return []graph.Output{r}
			},
			core.WhileOpts{Name: "tcp_loop"},
		)
	})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	workerOf := func(dev string) string {
		if i := strings.IndexByte(dev, '/'); i >= 0 {
			return dev[:i]
		}
		return dev
	}
	nodes, err := core.Prune(b.G, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(b.G, nodes, workerOf)
	if err != nil {
		t.Fatal(err)
	}

	rvA, err := rendezvous.NewNet("wA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rvA.Close()
	rvB, err := rendezvous.NewNet("wB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rvB.Close()
	rvA.AddPeer("wB", rvB.Addr())
	rvB.AddPeer("wA", rvA.Addr())

	nodesFor := func(worker string) []*graph.Node {
		var mine []*graph.Node
		for dev, nodes := range res.Parts {
			if workerOf(dev) == worker {
				mine = append(mine, nodes...)
			}
		}
		return mine
	}

	var wg sync.WaitGroup
	var resultVal float64
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		plan, err := exec.NewPlan(b.G, exec.PlanOptions{Nodes: nodesFor("wA"), Fetches: outs})
		if err != nil {
			errA = err
			return
		}
		vals, _, err := plan.Run(exec.Binding{Rendezvous: rvA})
		if err != nil {
			errA = err
			return
		}
		resultVal = vals[0].T.ScalarValue()
	}()
	go func() {
		defer wg.Done()
		plan, err := exec.NewPlan(b.G, exec.PlanOptions{Nodes: nodesFor("wB")})
		if err != nil {
			errB = err
			return
		}
		_, _, errB = plan.Run(exec.Binding{Rendezvous: rvB})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("worker errors: A=%v B=%v", errA, errB)
	}
	if resultVal != 7 {
		t.Fatalf("result %v, want 7", resultVal)
	}
}
