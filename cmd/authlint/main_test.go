package main

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gridauth/internal/analysis"
	"gridauth/internal/analysis/deadexport"
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

// TestDeadExportAcrossExportData runs deadexport through the module
// loader, as a whole-tree run does, on internal/analysis/... and this
// command, which together hold every caller of the analysis packages.
// The loader type-checks each package from source but hands its
// importers the compiler's export data, so analysis.Loader.Load, which
// only this command calls, reaches its caller as a different object
// from the one its package declares. Matching uses on import path,
// type and name finds the call; matching on object identity would
// report Load as dead.
func TestDeadExportAcrossExportData(t *testing.T) {
	pkgs, err := analysis.NewLoader("").Load("gridauth/internal/analysis/...", "gridauth/cmd/authlint")
	if err != nil {
		t.Fatal(err)
	}
	results, err := analysis.Run(deadexport.Analyzer, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, diags := range results {
		for _, d := range diags {
			t.Errorf("%s: %s", pkgs[i].Fset.Position(d.Pos), d.Message)
		}
	}
}
