// Command experiments runs the committed P13 experiment grid
// (grid.json next to this file) through the full-stack load harness
// (internal/loadgen) and writes the machine-readable report to
// BENCH_load.json at the repository root. The human-readable table goes
// to stdout, per-run progress to stderr.
//
//	go run ./scripts/experiments
//	go run ./scripts/experiments -grid my-grid.json -out /tmp/bench.json
//
// See docs/PERFORMANCE.md ("P13 — full-stack load") for the grid
// schema and the runbook.
package main

import (
	"flag"
	"fmt"
	"os"

	"gridauth/internal/loadgen"
)

func main() {
	grid := flag.String("grid", "scripts/experiments/grid.json", "experiment grid file")
	out := flag.String("out", "BENCH_load.json", "machine-readable report path")
	flag.Parse()

	g, err := loadgen.LoadGrid(*grid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	rep, err := loadgen.RunGrid(g, func(line string) { fmt.Fprintln(os.Stderr, line) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	fmt.Print(rep.Table())
	if err := rep.WriteJSON(*out); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	for _, p := range rep.Points {
		if p.Errors > 0 {
			fmt.Fprintf(os.Stderr, "experiments: point %s recorded %d transport errors\n", p.Point, p.Errors)
			os.Exit(1)
		}
		if p.CrossCheckPct > 1.0 {
			fmt.Fprintf(os.Stderr, "experiments: point %s client/server decision counts disagree by %.2f%%\n", p.Point, p.CrossCheckPct)
			os.Exit(1)
		}
	}
}
