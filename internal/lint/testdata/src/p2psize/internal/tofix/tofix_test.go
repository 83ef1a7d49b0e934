package tofix

import "testing"

func TestCalledFromTest(t *testing.T) {
	if CalledFromTest() != 1 || Recursive(3) != 0 {
		t.Fatal("fixture")
	}
	Allowed()
}
