// Command fixture is the non-test caller that keeps the fixture's internal
// packages live, so deadapi reports only what the fixture seeds.
package main

import (
	"repro/internal/dead"
	"repro/internal/exec"
)

func main() {
	exec.Explode(dead.Measure(dead.Options{Side: 2}))
	exec.Tolerated()
}
