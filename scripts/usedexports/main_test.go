package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestAuditFixture runs the audit over testdata/fixture, whose lib
// package declares one name for each rule, exported and unexported, with
// testdata/fixture/bench as the caller module and fix/libtest as test
// support; app's main function is used by definition.
func TestAuditFixture(t *testing.T) {
	testOnly, declared, err := audit([]string{"testdata/fixture", "testdata/fixture/bench"}, map[string]bool{"fix/libtest": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fix/lib.Counter.Count", // only a same-named field of another type is used
		"fix/lib.Counter.reset", // an unexported method used only by a _test.go file
		"fix/lib.Quoted",        // named only inside a string literal
		"fix/lib.SupportOnly",   // called only by the test-support package
		"fix/lib.TestOnly",      // used only by a _test.go file
		"fix/lib.helper",        // an unexported function used only by a _test.go file
	}
	if !reflect.DeepEqual(testOnly, want) {
		t.Errorf("test-only names %q, want %q", testOnly, want)
	}
	// Used, and so not listed: Square.Area through the Shape interface
	// the program uses, BenchOnly from the second module, zero by Total.
	for _, k := range []string{"fix/lib.Square.Area", "fix/lib.BenchOnly", "fix/lib.Total", "fix/lib.zero"} {
		if !declared[k] {
			t.Errorf("%s not among the declared names", k)
		}
	}
	if declared["fix/libtest.Helper"] {
		t.Error("a test-support package's export was audited")
	}

	allowed := map[string]bool{"fix/lib.Quoted": true, "fix/lib.SupportOnly": true, "fix/lib.TestOnly": true, "fix/lib.helper": true, "fix/lib.Total": true, "fix/lib.Gone": true}
	got := complaints(testOnly, declared, allowed)
	wantComplaints := []string{"fix/lib.Counter.Count: only tests use it", "fix/lib.Counter.reset: only tests use it", "fix/lib.Gone: allowlisted but no longer exists", "fix/lib.Total: allowlisted but has a non-test use"}
	if len(got) != len(wantComplaints) {
		t.Fatalf("complaints %q, want %q", got, wantComplaints)
	}
	for i, w := range wantComplaints {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("complaint %d = %q, want %q…", i, got[i], w)
		}
	}
}
