// Package dead seeds deadapi findings: surface that only tests reach. Its
// import path is under internal/, the analyzer's scope.
package dead

// Options configures Measure.
type Options struct {
	Side  int  // written by cmd/fixture: not reported
	Trace bool // WANT:deadapi
}

// Shape is reached only dynamically, through its method.
type Shape interface{ Area() int }

type square struct{ side int }

// Area is called only through Shape: the interface rule keeps it live.
func (s square) Area() int { return s.side * s.side }

// Measure is the package's live entry point.
func Measure(o Options) int {
	var s Shape = square{o.Side}
	if o.Trace {
		return -s.Area()
	}
	return s.Area()
}

// Unused is an exported function that only a test calls.
func Unused() int { return 0 } // WANT:deadapi
