package loadgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validGrid() *Grid {
	return &Grid{
		Seed:    1,
		Repeats: 1,
		Points: []Point{{
			Name:       "ok",
			Identities: 100,
			Requests:   50,
			Dist:       DistUniform,
			Policy:     PolicyShape{Shape: ShapeExact, Rules: 10},
		}},
	}
}

func TestGridValidate(t *testing.T) {
	if err := validGrid().Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Grid)
		want   string
	}{
		{"no-points", func(g *Grid) { g.Points = nil }, "no points"},
		{"no-name", func(g *Grid) { g.Points[0].Name = "" }, "needs a name"},
		{"bad-dist", func(g *Grid) { g.Points[0].Dist = "pareto" }, "unknown distribution"},
		{"bad-shape", func(g *Grid) { g.Points[0].Policy.Shape = "tree" }, "unknown policy shape"},
		{"one-rule", func(g *Grid) { g.Points[0].Policy.Rules = 1 }, "rules"},
		{"zero-identities", func(g *Grid) { g.Points[0].Identities = 0 }, "identities"},
		{"zero-requests", func(g *Grid) { g.Points[0].Requests = 0 }, "requests"},
		{"flat-zipf", func(g *Grid) { g.Points[0].Dist = DistZipf; g.Points[0].ZipfS = 0.5 }, "zipfS"},
		{"negative-mix", func(g *Grid) { g.Points[0].Mix.MDS = -1 }, "mix weights"},
		{"negative-conn", func(g *Grid) { g.Points[0].Conn.Full = -1 }, "conn weights"},
		{"hot-fraction", func(g *Grid) { g.Points[0].Dist = DistHotKey; g.Points[0].HotFraction = 1.5 }, "hotFraction"},
		{
			"duplicate-name",
			func(g *Grid) { g.Points = append(g.Points, g.Points[0]) },
			"duplicate point name",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := validGrid()
			tc.mutate(g)
			err := g.Validate()
			if err == nil {
				t.Fatal("invalid grid accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLoadGridRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	const text = `{"seed": 1, "points": [{"name": "x", "identities": 10,
		"requests": 10, "dist": "uniform", "policy": {"shape": "exact", "rules": 4},
		"workerz": 9}]}`
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGrid(path); err == nil || !strings.Contains(err.Error(), "workerz") {
		t.Fatalf("typo'd field not rejected: %v", err)
	}
}

func TestValidatePolicyProbes(t *testing.T) {
	for _, shape := range []string{ShapeExact, ShapePrefix, ShapeReq} {
		p := &Point{Name: "p", Identities: 10, Requests: 10, Dist: DistUniform,
			Policy: PolicyShape{Shape: shape, Rules: 100000}}
		if err := ValidatePolicy(p); err != nil {
			t.Fatalf("shape %s: %v", shape, err)
		}
	}
	p := &Point{Name: "p", Policy: PolicyShape{Shape: "nope"}}
	if err := ValidatePolicy(p); err == nil {
		t.Fatal("unknown shape accepted")
	}
}
