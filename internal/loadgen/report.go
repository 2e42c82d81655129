package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// ReportSchema versions the BENCH_load.json layout.
const ReportSchema = 1

// PointSummary aggregates a point's repeats: medians for the latency
// and throughput figures (robust to a noisy repeat), maxima for the
// peak rate and the cross-check disagreement (worst case must hold).
type PointSummary struct {
	Point               string      `json:"point"`
	Identities          int         `json:"identities"` // materialized, max over repeats
	Requests            int         `json:"requests"`
	OpenLoop            bool        `json:"openLoop,omitempty"`
	P50Micros           float64     `json:"p50Micros"`
	P99Micros           float64     `json:"p99Micros"`
	P999Micros          float64     `json:"p999Micros"`
	Throughput          float64     `json:"throughput"`
	PeakDecisionsPerSec float64     `json:"peakDecisionsPerSec"`
	CrossCheckPct       float64     `json:"crossCheckPct"` // max over repeats
	Errors              uint64      `json:"errors"`        // total over repeats
	Runs                []RunResult `json:"runs"`
}

// Report is the machine-readable result of a grid run — the layout of
// BENCH_load.json at the repository root.
type Report struct {
	Schema int            `json:"schema"`
	Seed   int64          `json:"seed"`
	Points []PointSummary `json:"points"`
}

// RunGrid executes every point of the grid, Repeats times each (seed+r
// for repeat r, so repeats are distinct but reproducible), and
// aggregates per-point summaries. progress, when non-nil, receives a
// line per completed run.
func RunGrid(g *Grid, progress func(string)) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Schema: ReportSchema, Seed: g.Seed}
	for _, p := range g.Points {
		repeats := p.Repeats
		if repeats == 0 {
			repeats = g.Repeats
		}
		if repeats == 0 {
			repeats = 1
		}
		var runs []RunResult
		for r := 0; r < repeats; r++ {
			res, err := RunPoint(p, g.Seed+int64(r))
			if err != nil {
				return nil, fmt.Errorf("point %s repeat %d: %w", p.Name, r, err)
			}
			res.Repeat = r
			runs = append(runs, *res)
			if progress != nil {
				progress(fmt.Sprintf("%-24s repeat %d/%d: %8.0f ops/s  p99 %8.0fµs  peak %8.0f dec/s  xcheck %.2f%%  errs %d",
					p.Name, r+1, repeats, res.Throughput, res.P99Micros, res.PeakDecisionsPerSec, res.CrossCheckPct, res.Errors))
			}
		}
		rep.Points = append(rep.Points, summarize(runs))
	}
	return rep, nil
}

func summarize(runs []RunResult) PointSummary {
	s := PointSummary{
		Point:    runs[0].Point,
		Requests: runs[0].Requests,
		OpenLoop: runs[0].OpenLoop,
		Runs:     runs,
	}
	var p50, p99, p999, tput, peak []float64
	for _, r := range runs {
		p50 = append(p50, r.P50Micros)
		p99 = append(p99, r.P99Micros)
		p999 = append(p999, r.P999Micros)
		tput = append(tput, r.Throughput)
		peak = append(peak, r.PeakDecisionsPerSec)
		if r.Identities > s.Identities {
			s.Identities = r.Identities
		}
		if r.CrossCheckPct > s.CrossCheckPct {
			s.CrossCheckPct = r.CrossCheckPct
		}
		s.Errors += r.Errors
	}
	s.P50Micros = median(p50)
	s.P99Micros = median(p99)
	s.P999Micros = median(p999)
	s.Throughput = median(tput)
	s.PeakDecisionsPerSec = max64(peak)
	return s
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func max64(vs []float64) float64 {
	out := 0.0
	for _, v := range vs {
		if v > out {
			out = v
		}
	}
	return out
}

// WriteJSON writes the report to path, indented and newline-terminated
// so the committed BENCH_load.json diffs cleanly.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table renders the human-readable summary table.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %10s %9s %11s %11s %11s %12s %8s %6s\n",
		"point", "identities", "requests", "p50(µs)", "p99(µs)", "p999(µs)", "peak dec/s", "xcheck%", "errs")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%-24s %10d %9d %11.0f %11.0f %11.0f %12.0f %8.2f %6d\n",
			p.Point, p.Identities, p.Requests, p.P50Micros, p.P99Micros, p.P999Micros,
			p.PeakDecisionsPerSec, p.CrossCheckPct, p.Errors)
	}
	return sb.String()
}
