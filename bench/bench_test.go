package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	for _, spec := range workloads {
		a := streamDigest(genStreams(spec, 1, 400))
		if b := streamDigest(genStreams(spec, 1, 400)); a != b {
			t.Errorf("%s: same seed gave digests %s and %s", spec.Name, a, b)
		}
		if c := streamDigest(genStreams(spec, 2, 400)); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", spec.Name)
		}
	}
}

// Each client must own its identities alone: that is what makes the
// streams independent of how the clients interleave.
func TestClientsShareNoIdentity(t *testing.T) {
	for _, spec := range workloads {
		owner := map[uint32]int{}
		for c, s := range genStreams(spec, 1, 400) {
			for _, o := range append(append([]op(nil), s.Warm...), s.Timed...) {
				for _, id := range []uint32{o.Ident, o.Target} {
					if prev, ok := owner[id]; ok && prev != c {
						t.Fatalf("%s: identity %d is used by clients %d and %d", spec.Name, id, prev, c)
					}
					owner[id] = c
				}
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := quantile(s, 0.5); got != 501 {
		t.Errorf("p50 = %v, want 501", got)
	}
	if got := quantile(s, 0.99); got != 991 {
		t.Errorf("p99 = %v, want 991", got)
	}
	if got := beyond(len(s), 0.99); got != 9 {
		t.Errorf("samples beyond p99 = %d, want 9", got)
	}
	if quantile(nil, 0.5) != 0 || beyond(0, 0.99) != 0 {
		t.Error("empty samples must give 0")
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v, want 1.75, 5.25", q1, q3)
	}
	if m := medianFloat([]float64{3, 1, 4, 1}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

// The outcome every op variant is built to get must be the reference
// interpreter's over both sources, on both policy shapes.
func TestExpectedOutcomesAgreeWithReferenceInterpreter(t *testing.T) {
	local, err := localPolicy()
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []string{"req", "prefix"} {
		community, err := communityPolicy(shape)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkExpectedOutcomes(shape, community, local); err != nil {
			t.Errorf("shape %s: %v", shape, err)
		}
	}
}

// A short run of every workload, timed and traced, must end with no
// failed op, exact counter cross-checks and a verified audit log, and must
// emit exactly the metrics the tables define.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel() // correctness only: nothing here is read as a timing
			in, err := makeInputs(spec, 1, 300)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				var rec *record
				defs := endToEnd
				if traced {
					rec, err = runTraced(in, t.TempDir())
					defs = perLayer
				} else {
					rec, err = runTimed(in, t.TempDir())
				}
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v failed=%d attempted=%d problems=%v", traced, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
				}
				if len(rec.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics emitted, %d defined", traced, len(rec.Metrics), len(defs))
				}
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat_p50_us", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		def  metricDef
		a, b setStats
		want string
	}{
		{lower, setStats{median: 100}, setStats{median: 106}, "ok"},
		{lower, setStats{median: 100}, setStats{median: 108}, "regressed"},
		{lower, setStats{median: 100}, setStats{median: 50}, "ok"},
		{higher, setStats{median: 100}, setStats{median: 94}, "regressed"},
		{higher, setStats{median: 100}, setStats{median: 120}, "ok"},
		{higher, setStats{median: 100, spread: 0.06}, setStats{median: 94}, "unresolved"},
		{lower, setStats{median: 100}, setStats{median: 101, spread: 0.07}, "unresolved"},
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.def.Name, c.a.median, c.b.median, got, c.want)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program accepts only -seconds %d", manifest.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from the program's %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", manifest.PerLayer, perLayer)
	}
}
