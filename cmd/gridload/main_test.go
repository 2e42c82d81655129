package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridauth/internal/loadgen"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodGrid = `{
  "seed": 7,
  "repeats": 1,
  "points": [
    {"name": "a", "identities": 50, "requests": 40, "dist": "uniform",
     "policy": {"shape": "exact", "rules": 16}},
    {"name": "b", "identities": 50, "requests": 40, "dist": "zipf",
     "policy": {"shape": "prefix", "rules": 16}}
  ]
}
`

func TestValidateOK(t *testing.T) {
	grid := writeTemp(t, "grid.json", goodGrid)
	code, err := run([]string{"-validate", "-grid", grid})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
}

func TestValidateRejectsBadGrid(t *testing.T) {
	cases := map[string]string{
		"bad-dist":  `{"seed":1,"points":[{"name":"x","identities":10,"requests":10,"dist":"pareto","policy":{"shape":"exact","rules":4}}]}`,
		"bad-shape": `{"seed":1,"points":[{"name":"x","identities":10,"requests":10,"dist":"uniform","policy":{"shape":"btree","rules":4}}]}`,
		"typo-key":  `{"seed":1,"points":[{"name":"x","identities":10,"requestz":10,"dist":"uniform","policy":{"shape":"exact","rules":4}}]}`,
		"not-json":  `points: [x]`,
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			grid := writeTemp(t, "grid.json", text)
			code, err := run([]string{"-validate", "-grid", grid})
			if code != 2 || err == nil {
				t.Fatalf("code=%d err=%v, want 2 with error", code, err)
			}
		})
	}
}

func TestValidateRequiresGrid(t *testing.T) {
	if code, err := run([]string{"-validate"}); code != 2 || err == nil {
		t.Fatalf("code=%d err=%v, want usage error", code, err)
	}
}

func TestUnknownFlagExitsUsage(t *testing.T) {
	if code, _ := run([]string{"-no-such-flag"}); code != 2 {
		t.Fatalf("code=%d, want 2", code)
	}
}

// TestTinyRunWritesReport runs a minimal real load through the CLI path
// and checks the report round-trips.
func TestTinyRunWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("real load run")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	code, err := run([]string{
		"-identities", "20", "-requests", "30", "-workers", "2",
		"-dist", "uniform", "-shape", "req", "-rules", "8",
		"-resume", "0.2", "-full", "0.2",
		"-out", out,
	})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 || rep.Points[0].Point != "adhoc" {
		t.Fatalf("report points = %+v", rep.Points)
	}
	p := rep.Points[0]
	if p.Errors != 0 || p.CrossCheckPct > 1.0 {
		t.Fatalf("errors=%d crosscheck=%.2f%%", p.Errors, p.CrossCheckPct)
	}
	if !strings.Contains(rep.Table(), "adhoc") {
		t.Fatal("table missing the point row")
	}
}
