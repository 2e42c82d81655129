package main

import "fmt"

// setStats is the median and the quartile spread of one metric on one
// workload over the runs of a result set.
type setStats struct {
	n      int
	median float64
	spread float64 // (Q3 − Q1) ÷ median; 0 with fewer than two runs
}

func statsOf(set *resultSet, workload, metric string) setStats {
	var vs []float64
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	s := setStats{n: len(vs), median: medianFloat(vs)}
	if len(vs) >= 2 && s.median != 0 {
		q1, q3 := quartiles(vs)
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// verdict judges b against a for one metric: regressed when b's median is
// worse than a's by more than the bound, unresolved when either set's own
// runs spread as wide as the bound or wider, so that the medians cannot tell.
func verdict(d metricDef, a, b setStats) (delta float64, word string) {
	delta = (b.median - a.median) / a.median
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case a.spread >= d.Bound || b.spread >= d.Bound:
		return delta, "unresolved"
	case worse > d.Bound:
		return delta, "regressed"
	}
	return delta, "ok"
}

// compareSets prints, per workload × end-to-end metric, both medians, the
// delta, the bound and the verdict, then the exact-count layer metrics of
// traced runs, which must be identical. It fails on any regression.
func compareSets(pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	regressed, incorrect := 0, 0
	for _, set := range []*resultSet{a, b} {
		for _, r := range set.Runs {
			if !r.Correct {
				incorrect++
			}
		}
	}
	fmt.Printf("%-14s %-20s %14s %14s %8s %7s %7s %6s  %s\n", "workload", "metric", "a", "b", "delta", "spr(a)", "spr(b)", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			sa, sb := statsOf(a, w.Name, d.Name), statsOf(b, w.Name, d.Name)
			if sa.n == 0 || sb.n == 0 {
				continue
			}
			delta, word := verdict(d, sa, sb)
			if word == "regressed" {
				regressed++
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %+7.2f%% %6.2f%% %6.2f%% %5.0f%%  %s (n=%d,%d)\n",
				w.Name, d.Name, sa.median, sb.median, 100*delta, 100*sa.spread, 100*sb.spread, 100*d.Bound, word, sa.n, sb.n)
		}
	}
	mismatched := compareCounts(a, b)
	switch {
	case incorrect > 0:
		return fmt.Errorf("%d run(s) in the sets are marked incorrect", incorrect)
	case regressed > 0:
		return fmt.Errorf("%d metric(s) regressed", regressed)
	case mismatched > 0:
		return fmt.Errorf("%d exact-count metric(s) differ", mismatched)
	}
	return nil
}

// compareCounts checks the count-unit layer metrics of traced runs with
// the same workload and seed: they are exact and must repeat exactly.
func compareCounts(a, b *resultSet) int {
	exact := map[string]bool{"core.decisions_permit": true, "core.decisions_deny": true,
		"gsi.handshakes_full": true, "gsi.handshakes_resumed": true, "gram.requests": true, "audit.dropped": true}
	mismatched := 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if !ra.Trace || !rb.Trace || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, name := range sortedKeys(ra.Metrics) {
				if !exact[name] {
					continue
				}
				va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
				word := "identical"
				if va != vb {
					word = "DIFFERENT"
					mismatched++
				}
				fmt.Printf("%-14s %-24s %12.0f %12.0f  %s (seed %d)\n", ra.Workload, name, va, vb, word, ra.Seed)
			}
		}
	}
	return mismatched
}
