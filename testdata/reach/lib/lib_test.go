package lib

import "testing"

func TestCalledByTestOnly(t *testing.T) {
	if CalledByTestOnly() != 2 {
		t.Fatal("CalledByTestOnly")
	}
}
