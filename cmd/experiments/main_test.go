package main

import (
	"bytes"
	"strings"
	"testing"
)

// A selector that matches no experiment is a rejected command line, not an
// empty success: exit 2, nothing run, the bad id and the valid ones named.
func TestRunRejectsUnknownID(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "sec21,figg1"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("ran something before rejecting the selector:\n%s", out.String())
	}
	for _, want := range []string{`"figg1"`, "fig1", "tbl3", "tbl4", "wl-rcp", "all"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("error does not name %s:\n%s", want, errOut.String())
		}
	}
}

// -run sec21 prints the §2.1 overhead table — the cheapest section — and
// only that.
func TestRunSelectsOneSection(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "sec21"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	got := out.String()
	if !strings.HasPrefix(got, "==== sec21 ====\n") || !strings.Contains(got, "84 B/packet") {
		t.Errorf("missing the §2.1 table:\n%s", got)
	}
	if n := strings.Count(got, "===="); n != 2 {
		t.Errorf("printed %d sections, want 1:\n%s", n/2, got)
	}
}
