//go:build race

package main

// A race build's sync.Pool drops a random quarter of what it is given, so
// a decode's heap count says nothing about the pool's rules there.
func init() { raceBuild = true }
