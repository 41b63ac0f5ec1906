//go:build race

package dcf_test

// A race build's kernels are slower and its sync.Pool drops a random quarter
// of what it is given, so a step's hand-offs and heap counts say nothing
// about the rules TestDispatchCounts pins.
func init() { raceBuild = true }
