// Package leaky seeds goroleak violations: goroutines parked forever on
// channel operations with no escape. The spawn shapes cover the loader
// edge cases — closures capturing enclosing locals, and a method value
// spawned directly by a go statement.
package leaky

import "context"

// RecvLeak spawns a closure that receives on a channel nothing closes.
func RecvLeak() {
	ch := make(chan int)
	go func() {
		<-ch // WANT:goroleak
	}()
	ch <- 1
}

// SelectLeak blocks in a select with no default and no escape case.
func SelectLeak(a, b chan int) {
	go func() {
		select { // WANT:goroleak
		case <-a:
		case <-b:
		}
	}()
}

// SendLeak spawns a send nothing ever receives.
func SendLeak() {
	ch := make(chan int)
	go func() {
		ch <- 1 // WANT:goroleak
	}()
}

// SendHandshake is the result-channel pattern: the spawner receives, so
// the spawned send escapes. Must NOT be flagged.
func SendHandshake() int {
	out := make(chan int)
	go func() { out <- 2 }()
	return <-out
}

// QuitSelect has a shutdown case: the conventional worker shape.
func QuitSelect(work chan int, quit chan struct{}) {
	go func() {
		for {
			select {
			case v := <-work:
				_ = v
			case <-quit:
				return
			}
		}
	}()
}

// CtxWorker escapes via ctx.Done().
func CtxWorker(ctx context.Context, work chan int) {
	go func() {
		for {
			select {
			case v := <-work:
				_ = v
			case <-ctx.Done():
				return
			}
		}
	}()
}

// RangeClosed ranges over a channel its producer closes.
func RangeClosed() {
	jobs := make(chan int, 4)
	go func() {
		for v := range jobs {
			_ = v
		}
	}()
	jobs <- 1
	close(jobs)
}

type pump struct {
	in   chan int
	stop chan struct{}
}

// loop is spawned as a method; its shutdown channel is the escape.
func (p *pump) loop() {
	for {
		select {
		case v := <-p.in:
			_ = v
		case <-p.stop:
			return
		}
	}
}

// start spawns the method — the callgraph resolves `go p.loop()` to the
// declared method body.
func (p *pump) start() {
	go p.loop()
}
