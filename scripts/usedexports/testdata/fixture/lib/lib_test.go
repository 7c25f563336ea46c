package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 || helper() != 4 {
		t.Fatal("TestOnly")
	}
	Counter{}.reset()
}
