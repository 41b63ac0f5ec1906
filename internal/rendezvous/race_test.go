//go:build race

package rendezvous

// A race build's sync.Pool drops a random quarter of what it is given, so
// some of a hop's receives miss the tensor pool and allocate the tensor
// anew: half an object more per hop, at either size.
func init() { racePoolAllocs = 0.5 }
