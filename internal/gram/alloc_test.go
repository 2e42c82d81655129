package gram

import (
	"runtime"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
)

// warmJob is a start the default chain permits whose job completes at
// once, so the cluster's queue does not grow with the runs.
const warmJob = `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)`

// TestWarmRoundTripAllocations is the allocation gate of a warm GRAM
// request: with a loopback gatekeeper and client on one authenticated
// connection, and the VO and local policies in stores as a resource
// holds them, it pins the process-wide allocations of one status round
// trip and of one permitted submit, both ends and the callout chain
// together. What remains is what the request hands on: the strings
// each end decodes, the core.Request, the request ID and its context,
// and the permit's reason — and the policy engine's reason for the
// local policy's abstention, rendered though no one reads it.
func TestWarmRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e := newEnv(t, envOpts{mode: AuthzCallout, registry: func(r *core.Registry) {
		r.Bind(core.CalloutJobManager, &core.StorePDP{Store: policy.NewStore(policy.MustParse(voPolicy, "VO:NFC"))})
		r.Bind(core.CalloutJobManager, &core.StorePDP{Store: policy.NewStore(policy.MustParse(localPolicy, "local"))})
	}})
	bo := e.client(boDN)
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func() error
		want float64
	}{
		{"status", func() error { _, err := bo.Status(contact); return err }, 14},
		// The status's, plus the RSL parse, the job contact, the JMI and
		// the scheduler's record and events.
		{"submit", func() error { _, err := bo.Submit(warmJob, ""); return err }, 45},
	} {
		if err := tc.op(); err != nil { // warm the path
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		}); n != tc.want {
			t.Errorf("a warm %s round trip allocates %v times, want %v", tc.name, n, tc.want)
		}
	}
}

// TestColdRoundTripAllocations is the allocation gate of a cold GRAM
// request, the startup path of the paper's claim: a fresh client dials,
// runs a full GSI handshake (its session cache is its own, so there is
// nothing to resume), submits one permitted job and hangs up. It pins
// the process-wide allocations and bytes of one such op, both ends
// together, over loopback. Each op waits for the gatekeeper's side of
// its connection to end, so no op's server work is counted in another.
// The bulk of it is the handshake: the legs each end encodes and
// decodes, the chain verified, the ticket granted. Neither end builds a
// read buffer: both borrow theirs from jsonwire's pool and return it.
func TestColdRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		wantAllocs = 161
		wantBytes  = 12 << 10 // one more read buffer would be 4 KiB over
	)
	m := obs.NewMetrics()
	e := newEnv(t, envOpts{mode: AuthzCallout, tune: func(c *Config) { c.Metrics = m }})
	proxy, err := gsi.Delegate(e.creds[boDN], time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	cold := func() {
		c := NewClient(e.addr, proxy, e.trust)
		if _, err := c.Submit(warmJob, ""); err != nil {
			t.Fatal(err)
		}
		c.Close()
		for deadline := time.Now().Add(5 * time.Second); m.ConnsActive.Load() != 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("the gatekeeper never let go of a closed connection")
			}
		}
	}
	cold() // warm the pools and the signature memo
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := testing.AllocsPerRun(runs, cold)
	runtime.ReadMemStats(&after)
	bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once more
	t.Logf("a cold submit allocates %v times and %d bytes, both ends", n, bytesPerOp)
	if n > wantAllocs {
		t.Errorf("a cold submit allocates %v times, both ends; want at most %d", n, wantAllocs)
	}
	if bytesPerOp > wantBytes {
		t.Errorf("a cold submit allocates %d bytes, both ends; want at most %d", bytesPerOp, wantBytes)
	}
}
