package dead

import "testing"

// A test reference keeps nothing alive: Unused and Options.Trace are still
// reported.
func TestDead(t *testing.T) {
	if Unused() != 0 || Measure(Options{Side: 2, Trace: true}) != -4 {
		t.Fatal("fixture arithmetic")
	}
}
