package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sampler watches process-wide resources while the traced ops replay.
type sampler struct {
	stop       chan struct{}
	done       chan struct{}
	goroutines int
	fds        int
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	if n := runtime.NumGoroutine(); n > s.goroutines {
		s.goroutines = n
	}
	if entries, err := os.ReadDir("/proc/self/fd"); err == nil && len(entries) > s.fds {
		s.fds = len(entries)
	}
}

// finish stops the sampler and waits for it; its peaks are then readable.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// opClass groups traced ops whose request path is the same.
type opClass struct {
	kind      opKind
	permitted bool
}

// pathUs is the sum of the replayed layer medians along the request path
// of an op class, in the order gram.Gatekeeper.handleJobRequest and
// handleManage take them, plus connection set-up where the op opens one.
func pathUs(c opClass, conn connMode, p map[string]float64, dialUs, fullUs, resumedUs float64) float64 {
	invoke := p["core.invoke_deny_us"]
	if c.permitted {
		invoke = p["core.invoke_permit_us"]
	}
	sum := invoke + p["audit.append_us"]
	if c.kind != kindPut {
		sum += p["gram.frame_us"]
	}
	switch c.kind {
	case kindSubmit:
		sum += p["rsl.parse_us"] + p["gridmap.lookup_us"]
		if c.permitted {
			sum += p["jobcontrol.submit_us"]
		}
	case kindStatus:
		if c.permitted {
			sum += p["jobcontrol.lookup_us"]
		}
	case kindCancel:
		if c.permitted {
			sum += p["jobcontrol.cancel_us"] + p["jobcontrol.lookup_us"]
		}
	}
	switch conn {
	case connCold:
		sum += dialUs + fullUs
	case connResume:
		sum += dialUs + resumedUs
	}
	return sum
}

// runTraced is the per-layer run of one workload: one client replays the
// first ops of its stream with every call into a layer in a span, then
// the probes price each layer from outside. End-to-end metrics never come
// from this run.
func runTraced(in *inputs, tmpRoot string) (*record, error) {
	spec := in.spec
	out := &record{Workload: spec.Name, Seed: in.seed, Trace: true, Digests: in.digests, Env: environment()}
	timed := in.streams[0].Timed
	nTrace := min(spec.TraceOps, len(timed))
	ops := timed[:nTrace]

	st, err := setUp(in, tmpRoot, probeIdents, &recorder{muted: true})
	if err != nil {
		return nil, err
	}
	finished := false
	defer func() {
		if !finished {
			tearDown(st) // an error is already on its way out
		}
	}()
	values := map[string]float64{
		"setup.policy_s":    st.parts.Policy.Seconds(),
		"setup.stack_s":     st.parts.Stack.Seconds(),
		"setup.fabricate_s": st.parts.Fabricate.Seconds(),
		"setup.warmup_s":    st.parts.Warmup.Seconds(),
	}

	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	watch := startSampler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tallies := runStreams(st, in.streams[:1], false, nTrace, rec)
	runtime.ReadMemStats(&m1)
	watch.finish()
	after, err := st.scrape()
	if err != nil {
		return nil, err
	}

	var want expectation
	expect(&want, ops)
	problems := crossCheck(before, after, want)
	var firstFail error
	out.Ops, out.Attempted = nTrace, nTrace
	out.Failed, firstFail = sumFailures(tallies)
	if firstFail != nil {
		problems = append(problems, firstFail.Error())
	}

	// Exact counts and the server's own view, before the probes add theirs.
	values["core.decisions_permit"] = after["authz_decisions_permit_total"] - before["authz_decisions_permit_total"]
	values["core.decisions_deny"] = after["authz_decisions_deny_total"] - before["authz_decisions_deny_total"]
	values["gsi.handshakes_full"] = after["gsi_handshakes_full_total"] - before["gsi_handshakes_full_total"]
	values["gsi.handshakes_resumed"] = after["gsi_handshakes_resumed_total"] - before["gsi_handshakes_resumed_total"]
	values["gram.requests"] = after["gram_requests_total"] - before["gram_requests_total"]
	// A ratio without a denominator is recorded as 0 and named a problem:
	// NaN would fail the encoding of the whole result.
	ratio := func(name string, num, den float64) {
		if den == 0 {
			problems = append(problems, name+": nothing to divide by")
			num, den = 0, 1
		}
		values[name] = num / den
	}
	ratio("obs.decision_mean_us", 1e6*(after["authz_decision_seconds_sum"]-before["authz_decision_seconds_sum"]),
		after["authz_decision_seconds_count"]-before["authz_decision_seconds_count"])
	ratio("audit.flush_mean_ms", 1e3*after["audit_flush_seconds_sum"], after["audit_flush_seconds_count"])
	ratio("audit.batch_mean_records", after["audit_records_total"], after["audit_batches_total"])
	values["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	values["go.gc_pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	values["go.goroutines_peak"] = float64(watch.goroutines)
	values["proc.fds_peak"] = float64(watch.fds)

	// Latency of the replayed ops: all of them by kind, and traced against
	// untraced blocks for the cost of tracing itself.
	lat := tallies[0].lat
	var traced, untraced, startup []int64
	byClass := map[opClass][]int64{}
	conn := map[opClass]connMode{}
	for i, o := range ops {
		if (i/traceBlock)%2 == 0 {
			traced = append(traced, lat[i])
		} else {
			untraced = append(untraced, lat[i])
		}
		if o.Kind == kindSubmit && o.permitted() {
			startup = append(startup, lat[i])
		}
		c := opClass{o.Kind, o.permitted()}
		byClass[c] = append(byClass[c], lat[i])
		conn[c] = o.Conn
	}
	startup = sorted(startup)
	values["startup.p50_us"] = quantile(startup, 0.50) / 1e3
	values["startup.p99_us"] = quantile(startup, 0.99) / 1e3
	values["lat.p999_us"] = quantile(sorted(lat), 0.999) / 1e3
	on, off := medianUs(traced), medianUs(untraced)
	if off > 0 {
		values["trace.overhead_pct"] = 100 * (on - off) / off
	} else {
		problems = append(problems, "no untraced block to compare tracing overhead with")
	}

	reqs, err := calloutRequests(st, ops[:min(len(ops), 4*replayBatch)])
	if err != nil {
		return nil, err
	}
	probes, err := (&probe{st: st, ids: st.ids[in.nIdent:], reqs: reqs}).run()
	if err != nil {
		problems = append(problems, "probe: "+err.Error())
	}
	for k, v := range probes {
		values[k] = v
	}

	// Attribution: what share of the client-observed latency the layers
	// priced above explain, weighted over the replayed ops.
	dialUs, fullUs, resumedUs := rec.median("net.dial"), rec.median("gsi.handshake_full"), rec.median("gsi.handshake_resumed")
	if dialUs == 0 {
		dialUs = probes["net.dial_us"]
	}
	if fullUs == 0 {
		fullUs = probes["gsi.handshake_full_us"]
	}
	if resumedUs == 0 {
		resumedUs = probes["gsi.handshake_resumed_us"]
	}
	out.Detail = map[string]float64{"traced_ops": float64(len(traced)), "untraced_ops": float64(len(untraced)), "p50_traced_us": on, "p50_untraced_us": off}
	var explained, observed float64
	for c, ls := range byClass {
		path, med := pathUs(c, conn[c], probes, dialUs, fullUs, resumedUs), medianUs(ls)
		explained += path * float64(len(ls))
		observed += med * float64(len(ls))
		name := fmt.Sprintf("attr.%s.%s", c.kind, map[bool]string{true: "permit", false: "deny"}[c.permitted])
		out.Detail[name+".ops"] = float64(len(ls))
		out.Detail[name+".p50_us"] = med
		out.Detail[name+".layers_us"] = path
	}
	ratio("attr.explained_pct", 100*explained, observed)
	ratio("attr.unattributed_us", observed-explained, float64(len(ops)))

	last, err := st.scrape()
	if err != nil {
		return nil, err
	}
	values["audit.dropped"] = last["audit_dropped_total"]
	values["audit.bytes_per_record"] = finish(out, st, last, problems)
	finished = true

	for _, s := range rec.stats() {
		out.Detail["span."+s.Name+".count"] = float64(s.Count)
		out.Detail["span."+s.Name+".p50_us"] = s.MedianUs
		out.Detail["span."+s.Name+".self_p50_us"] = s.SelfUs
	}

	var stray []string
	out.Metrics, stray = collect(perLayer, values)
	out.Problems = append(out.Problems, stray...)
	out.Correct = out.Correct && len(stray) == 0

	if err := rec.write(filepath.Join(tmpRoot, "trace-"+spec.Name+".jsonl")); err != nil {
		return nil, err
	}
	return out, nil
}
