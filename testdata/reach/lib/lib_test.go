package lib

import "testing"

func TestCalledByTestOnly(t *testing.T) {
	if CalledByTestOnly() != 2 {
		t.Fatal("CalledByTestOnly")
	}
}

// A rule that reads tests sees this declaration's type.
var _ interface{ Busy() bool }
