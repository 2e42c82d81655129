package gram

import (
	"testing"

	"gridauth/internal/core"
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
		{"submit", func() error { _, err := bo.Submit(warmJob, ""); return err }, 46},
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
