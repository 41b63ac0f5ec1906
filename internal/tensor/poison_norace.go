//go:build !race

package tensor

// poison is the race build's use-after-recycle tripwire (poison_race.go); a
// plain build pools the buffer as it is.
func poison(*Tensor) {}
