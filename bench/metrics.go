package main

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the gatekeeper sees, measured with tracing
// off. Failures are not a metric here: they are the attempted/failed
// counts of the result line, and any failure makes the run incorrect.
//
// Every time-based metric carries the widest bound a benchmark may have,
// 25 %, not the 5–15 % the issue asked for: the shared 2-core sandbox this
// was calibrated on changes its own speed by 15–20 % for minutes at a time.
// Ten runs of one commit then spread 7–18 % between their quartiles on the
// rates and medians and up to 28 % on lat_p99_us, at 12 s windows and at
// 25 s windows alike, and a bound below the box's own spread rejects
// changes at random. A claim smaller than that is settled by paired runs
// and -compare, not by these bounds. The two metrics that count bytes
// repeat within 1 % and keep tight bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.03},
	{"heap_live_mb", "MiB", "lower", 0.05},
}

// perLayer prices single layers (the traced run). bench/README.md says
// how each is taken and which end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "net.dial_us", Unit: "us", Better: "lower"},
	{Name: "gsi.handshake_full_us", Unit: "us", Better: "lower"},
	{Name: "gsi.handshake_resumed_us", Unit: "us", Better: "lower"},
	{Name: "gsi.pipe_full_us", Unit: "us", Better: "lower"},
	{Name: "gsi.pipe_resumed_us", Unit: "us", Better: "lower"},
	{Name: "gsi.verify_chain_us", Unit: "us", Better: "lower"},
	{Name: "gsi.sign_us", Unit: "us", Better: "lower"},
	{Name: "gsi.verify_sig_us", Unit: "us", Better: "lower"},
	{Name: "gsi.issue_us", Unit: "us", Better: "lower"},
	{Name: "gram.submit_rtt_us", Unit: "us", Better: "lower"},
	{Name: "gram.status_rtt_us", Unit: "us", Better: "lower"},
	{Name: "gram.cancel_rtt_us", Unit: "us", Better: "lower"},
	{Name: "gram.deny_rtt_us", Unit: "us", Better: "lower"},
	{Name: "gram.frame_us", Unit: "us", Better: "lower"},
	{Name: "rsl.parse_us", Unit: "us", Better: "lower"},
	{Name: "gridmap.lookup_us", Unit: "us", Better: "lower"},
	{Name: "core.invoke_permit_us", Unit: "us", Better: "lower"},
	{Name: "core.invoke_deny_us", Unit: "us", Better: "lower"},
	{Name: "policy.eval_permit_us", Unit: "us", Better: "lower"},
	{Name: "policy.eval_deny_us", Unit: "us", Better: "lower"},
	{Name: "policy.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "policy.store_replace_ms", Unit: "ms", Better: "lower"},
	{Name: "audit.append_us", Unit: "us", Better: "lower"},
	{Name: "audit.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "audit.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "audit.flush_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "audit.batch_mean_records", Unit: "count", Better: "higher"},
	{Name: "audit.dropped", Unit: "count", Better: "lower"},
	{Name: "jobcontrol.submit_us", Unit: "us", Better: "lower"},
	{Name: "jobcontrol.lookup_us", Unit: "us", Better: "lower"},
	{Name: "jobcontrol.cancel_us", Unit: "us", Better: "lower"},
	{Name: "gridftp.put_warm_us", Unit: "us", Better: "lower"},
	{Name: "gridftp.put_cold_us", Unit: "us", Better: "lower"},
	{Name: "mds.query_us", Unit: "us", Better: "lower"},
	{Name: "obs.decision_mean_us", Unit: "us", Better: "lower"},
	{Name: "core.decisions_permit", Unit: "count", Better: "lower"},
	{Name: "core.decisions_deny", Unit: "count", Better: "lower"},
	{Name: "gsi.handshakes_full", Unit: "count", Better: "lower"},
	{Name: "gsi.handshakes_resumed", Unit: "count", Better: "higher"},
	{Name: "gram.requests", Unit: "count", Better: "lower"},
	{Name: "startup.p50_us", Unit: "us", Better: "lower"},
	{Name: "startup.p99_us", Unit: "us", Better: "lower"},
	{Name: "lat.p999_us", Unit: "us", Better: "lower"},
	{Name: "setup.policy_s", Unit: "s", Better: "lower"},
	{Name: "setup.stack_s", Unit: "s", Better: "lower"},
	{Name: "setup.fabricate_s", Unit: "s", Better: "lower"},
	{Name: "setup.warmup_s", Unit: "s", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "go.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "proc.fds_peak", Unit: "count", Better: "lower"},
	{Name: "attr.explained_pct", Unit: "%", Better: "higher"},
	{Name: "attr.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one measured value as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs the defined metrics with their measured values. It
// reports the names defs and values do not share, which is a bug in the
// benchmark, not in the system.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var stray []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			stray = append(stray, "missing "+d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			stray = append(stray, "undefined "+name)
		}
	}
	return out, stray
}
