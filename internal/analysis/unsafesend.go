// UnsafeSend flags sends on channels that a DIFFERENT function can close.
// Sending on a closed channel panics, so a send and a close reachable from
// separate functions is a crash waiting on goroutine timing unless some
// external protocol serializes them — and that protocol deserves either a
// refactor (single owner closes after all sends provably stop) or an
// explicit dcfvet:allow stating the invariant.
//
// A close in the same function as the send is the ordinary producer
// pattern (send everything, then close) and is not flagged. Closes in
// _test.go files never count against production sends.
package analysis

var UnsafeSend = &Analyzer{
	Name:       "unsafesend",
	Doc:        "no sends on channels another function can close (racing close panics the send)",
	RunProgram: runUnsafeSend,
}

func runUnsafeSend(pass *ProgramPass) {
	prog := pass.Prog
	for _, fn := range prog.Order {
		if fn.testFile {
			continue
		}
		for _, send := range fn.Summary.Sends {
			var closer *Function
			for _, c := range prog.closes[send.Key] {
				if c.Key != fn.Key {
					closer = c
					break
				}
			}
			if closer == nil {
				continue
			}
			pass.Reportf(fn.Pkg, send.Pos,
				"send on %s which %s closes; a close racing this send panics — serialize them or document the protocol with an allow",
				trimModule(send.Key), closer.Name())
		}
	}
}
