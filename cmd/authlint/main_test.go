package main

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestListNamesEveryCheck runs -list, which prints the catalogue
// without loading a package, and checks it names each check once.
func TestListNamesEveryCheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("authlint -list exited %d: %s", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	sort.Strings(got)
	want := []string{
		"auditdeny", "auditdoc", "ctxprop", "deadexport", "decisionswitch",
		"doclint", "epochuse", "locksafe", "metricsdoc", "pdpcap", "policylint",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-list names\n %q\nwant\n %q", got, want)
	}
}
