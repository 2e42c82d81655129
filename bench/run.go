package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// record is one run of one workload: what -out files and the baseline
// sets hold, and what -compare reads.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Ops       int                    `json:"ops"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Problems  []string               `json:"problems,omitempty"`
	Digests   map[string]string      `json:"digests"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]float64     `json:"detail,omitempty"`
	Env       envRecord              `json:"env"`
}

// inputs are the generated inputs of a run.
type inputs struct {
	spec    *workloadSpec
	seed    int64
	streams [clients]stream
	nIdent  int
	digests map[string]string
}

// makeInputs generates the op streams of opsPerClient timed ops per client
// and checks them and both policies against the pinned digests. Only a
// test passes anything but spec.Ops/clients.
func makeInputs(spec *workloadSpec, seed int64, opsPerClient int) (*inputs, error) {
	in := &inputs{spec: spec, seed: seed, streams: genStreams(spec, seed, opsPerClient)}
	in.nIdent = identityCount(spec, in.streams)
	community, err := communityPolicy(spec.Shape)
	if err != nil {
		return nil, err
	}
	local, err := localPolicy()
	if err != nil {
		return nil, err
	}
	in.digests = map[string]string{
		"stream":               streamDigest(in.streams),
		"policy:" + spec.Shape: policyDigest(community),
		"policy:local":         policyDigest(local),
	}
	pinned := seed == 1 && opsPerClient == spec.Ops/clients
	if err := checkPins(spec, pinned, in.digests); err != nil {
		return nil, err
	}
	return in, nil
}

// setUp builds the deployment and warms it: every pooled connection is
// opened, every session ticket obtained, at least 2 000 ops run, and one
// discovery query proves the MDS binding. rec is the traced run's.
func setUp(in *inputs, tmpRoot string, extraIdents int, rec *recorder) (*stack, error) {
	dir, err := os.MkdirTemp(tmpRoot, "audit-")
	if err != nil {
		return nil, err
	}
	st, err := newStack(in.spec, in.seed, in.nIdent+extraIdents, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	t0 := time.Now()
	streams := in.streams[:]
	if rec != nil {
		streams = streams[:1]
	}
	_, failed := sumFailures(runStreams(st, streams, true, 0, rec))
	if failed == nil {
		failed = st.discover(st.ids[0])
	}
	st.parts.Warmup = time.Since(t0)
	if failed != nil {
		tearDown(st)
		return nil, fmt.Errorf("warm-up: %w", failed)
	}
	return st, nil
}

// tearDown closes a stack and removes its audit directory.
func tearDown(st *stack) error {
	err := st.Close()
	if rmErr := os.RemoveAll(st.auditDir); err == nil {
		err = rmErr
	}
	return err
}

// expectation is what a pass over ops must add to the server's counters.
type expectation struct {
	permits, denies, gramRequests, full, resumed float64
}

func expect(e *expectation, ops []op) {
	for _, o := range ops {
		if o.permitted() {
			e.permits++
		} else {
			e.denies++
		}
		if o.Kind == kindPut {
			continue
		}
		e.gramRequests++
		switch o.Conn {
		case connCold:
			e.full++
		case connResume:
			e.resumed++
		}
	}
}

// crossCheck compares the counter deltas of two scrapes with the
// expectation, exactly: one op is one decision and one audit record.
func crossCheck(before, after counters, e expectation) []string {
	var problems []string
	for _, c := range []struct {
		name string
		want float64
	}{
		{"authz_decisions_permit_total", e.permits},
		{"authz_decisions_deny_total", e.denies},
		{"authz_decisions_error_total", 0},
		{"authz_decisions_not_applicable_total", 0},
		{"gram_requests_total", e.gramRequests},
		{"gsi_handshakes_full_total", e.full},
		{"gsi_handshakes_resumed_total", e.resumed},
		{"gsi_handshakes_failed_total", 0},
		{"audit_dropped_total", 0},
	} {
		if got := after[c.name] - before[c.name]; got != c.want {
			problems = append(problems, fmt.Sprintf("%s moved by %.0f, expected %.0f", c.name, got, c.want))
		}
	}
	return problems
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// finish closes the stack, verifies its audit directory against the last
// scrape and folds everything into the record.
func finish(rec *record, st *stack, last counters, problems []string) (bytesPerRecord float64) {
	if err := st.checkIdle(); err != nil {
		problems = append(problems, err.Error())
	}
	if err := st.Close(); err != nil {
		problems = append(problems, "close: "+err.Error())
	}

	bytesPerRecord, err := st.verifyAudit(last.decisions())
	if err != nil {
		problems = append(problems, err.Error())
	}
	if err := os.RemoveAll(st.auditDir); err != nil {
		problems = append(problems, err.Error())
	}
	rec.Problems = problems
	rec.Correct = rec.Failed == 0 && len(problems) == 0
	return bytesPerRecord
}

// runTimed is the end-to-end run of one workload, tracing off.
func runTimed(in *inputs, tmpRoot string) (*record, error) {
	spec := in.spec
	rec := &record{Workload: spec.Name, Seed: in.seed, Digests: in.digests, Env: environment()}

	st, err := setUp(in, tmpRoot, 0, nil)
	if err != nil {
		return nil, err
	}
	finished := false
	defer func() {
		if !finished {
			tearDown(st) // an error is already on its way out
		}
	}()

	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tallies := runStreams(st, in.streams[:], false, 0, nil)
	wall := time.Since(t0)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2) // the stack, its job tables, sessions and pooled connections are still live
	after, err := st.scrape()
	if err != nil {
		return nil, err
	}

	var (
		want expectation
		lat  []int64
		kind [numKinds][]int64
	)
	for c, t := range tallies {
		expect(&want, in.streams[c].Timed)
		lat = append(lat, t.lat...)
		for i, o := range in.streams[c].Timed {
			kind[o.Kind] = append(kind[o.Kind], t.lat[i])
		}
	}
	ops := len(lat)
	rec.Ops, rec.Attempted = ops, ops
	var firstFail error
	rec.Failed, firstFail = sumFailures(tallies)
	problems := crossCheck(before, after, want)
	if firstFail != nil {
		problems = append(problems, firstFail.Error())
	}
	finish(rec, st, after, problems)
	finished = true

	lat = sorted(lat)
	values := map[string]float64{
		"setup_s":            st.parts.total().Seconds(),
		"ops_per_s":          float64(ops) / wall.Seconds(),
		"lat_p50_us":         quantile(lat, 0.50) / 1e3,
		"lat_p99_us":         quantile(lat, 0.99) / 1e3,
		"cpu_us_per_op":      float64(cpu1-cpu0) / 1e3 / float64(ops),
		"alloc_bytes_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		"heap_live_mb":       float64(m2.HeapAlloc) / (1 << 20),
	}
	var stray []string
	rec.Metrics, stray = collect(endToEnd, values)
	rec.Problems = append(rec.Problems, stray...)
	rec.Correct = rec.Correct && len(stray) == 0

	rec.Detail = map[string]float64{
		"window_s":            wall.Seconds(),
		"identities":          float64(in.nIdent),
		"samples":             float64(ops),
		"samples_beyond_p99":  float64(beyond(ops, 0.99)),
		"lat_p999_us":         quantile(lat, 0.999) / 1e3,
		"samples_beyond_p999": float64(beyond(ops, 0.999)),
		"fail_pct":            100 * float64(rec.Failed) / float64(ops),
		"gc_cycles":           float64(m1.NumGC - m0.NumGC),
		"gc_pause_total_ms":   float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
	rec.Detail["setup_policy_s"] = st.parts.Policy.Seconds()
	rec.Detail["setup_stack_s"] = st.parts.Stack.Seconds()
	rec.Detail["setup_fabricate_s"] = st.parts.Fabricate.Seconds()
	rec.Detail["setup_warmup_s"] = st.parts.Warmup.Seconds()
	for k := opKind(0); k < numKinds; k++ {
		if s := sorted(kind[k]); len(s) > 0 {
			rec.Detail[k.String()+"_samples"] = float64(len(s))
			rec.Detail[k.String()+"_p50_us"] = quantile(s, 0.50) / 1e3
			rec.Detail[k.String()+"_p99_us"] = quantile(s, 0.99) / 1e3
		}
	}
	return rec, nil
}
