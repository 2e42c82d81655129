package authlint

import "testing"

func TestSuiteWellFormed(t *testing.T) {
	seen := map[string]bool{}
	prev := ""
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %+v incomplete: needs Name, Doc and exactly one of Run and RunModule", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Name < prev {
			t.Errorf("suite out of order: %q after %q", a.Name, prev)
		}
		prev = a.Name
	}
	if len(seen) < 5 {
		t.Errorf("suite has %d analyzers, want at least 5", len(seen))
	}
}
