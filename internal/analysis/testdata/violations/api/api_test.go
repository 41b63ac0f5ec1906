package api

import "testing"

// A test reference keeps nothing alive, in a public package as under
// internal/: Helper is still reported.
func TestHelper(t *testing.T) {
	if Helper() != 1 {
		t.Fatal("fixture arithmetic")
	}
}
