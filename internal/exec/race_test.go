//go:build race

package exec

// A race build's sync.Pool drops a random quarter of what it is given, so a
// loop's buffers miss the pool and its allocation count says nothing about
// the executor's own.
func init() { raceBuild = true }
