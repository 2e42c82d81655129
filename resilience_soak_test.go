package gridauth

// Chaos soak: drives concurrent startup and management traffic through
// a live TCP resource whose callout chain contains a fault-injected PDP
// (internal/faultinject), with the full resilience stack enabled
// (the registry's per-PDP timeout, retries and circuit breaker). It
// asserts the degraded-mode contract end to end:
//
//   - job STARTUP under authorization-system failure stays fail-closed:
//     every submit is refused with the hard CodeAuthorizationFailure,
//     never the retryable code, and never admitted;
//   - job MANAGEMENT surfaces the retryable
//     CodeAuthorizationUnavailable, and a client that backs off and
//     retries succeeds once the backend heals and the breaker recovers
//     through half-open;
//   - breaker transitions (open, half-open, closed) are audited;
//   - no VO allocation is leaked by refused or abandoned requests.
//
// Run under -race in CI; every failure mode here is a concurrency bug
// by construction.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gridauth/internal/allocation"
	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/faultinject"
	"gridauth/internal/gram"
	"gridauth/internal/gsi"
	"gridauth/internal/resilience"
)

func TestChaosSoak(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Chaos CA")
	if err != nil {
		t.Fatal(err)
	}
	kate, err := fab.IssueUser("/O=Grid/CN=Kate")
	if err != nil {
		t.Fatal(err)
	}

	tracker := allocation.NewTracker()
	tracker.SetGrant(allocation.Grant{VO: "NFC", CPUSeconds: 1e6})
	tracker.Enroll(kate.Identity(), "NFC")

	// The chaos PDP stands in for a remote Akenti/CAS callout: it
	// abstains when healthy (the VO policy PDP is the granting source)
	// and injects errors and hangs when broken.
	steady := core.PDPFunc{ID: "steady", Fn: func(context.Context, *core.Request) core.Decision {
		return core.AbstainDecision("steady", "remote source has no opinion")
	}}
	chaos := faultinject.NewChaosPDP(steady, 7, faultinject.PDPConfig{})

	log := newAuditLog(t, 256)
	res, err := fab.StartResource(ResourceConfig{
		Name:    "chaos.anl.gov",
		Mode:    ModeCallout,
		GridMap: map[gsi.DN][]string{kate.Identity(): {"keahey"}},
		VOPolicy: `/O=Grid/CN=Kate: &(action = start)(executable = TRANSP)(maxtime != NULL) ` +
			`&(action = cancel information signal)(jobowner = self)`,
		ExtraPDPs:  []core.PDP{chaos},
		Allocation: tracker,
		AuditLog:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	protect := core.CalloutOptions{
		PDPTimeout:       250 * time.Millisecond,
		Retries:          1,
		RetryBackoff:     5 * time.Millisecond,
		Breaker:          true,
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
	}
	for _, callout := range []string{core.CalloutJobManager, core.CalloutGatekeeper} {
		res.Registry.SetCalloutOptions(callout, protect)
	}

	newClient := func() *gram.Client {
		c, err := res.Client(kate)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	// Healthy phase: one job goes in and is manageable; it is the target
	// of all management traffic below.
	healthy := newClient()
	contact, err := healthy.Submit(`&(executable=TRANSP)(count=1)(maxtime=30)(simduration=600)`, "")
	if err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	if _, err := healthy.Status(contact); err != nil {
		t.Fatalf("healthy status: %v", err)
	}

	// Fault phase: the remote source fails every call — one in five
	// hangs (cleared only by the PDP timeout), the rest error fast.
	// The rolls are independent, so ErrorRate must be 1 for a total
	// outage: anything that does not hang, errors.
	chaos.SetConfig(faultinject.PDPConfig{ErrorRate: 1, HangRate: 0.2})

	const workers, iters = 4, 5
	var wg sync.WaitGroup
	errCh := make(chan error, 2*workers*iters+2)
	for w := 0; w < workers; w++ {
		// Startup traffic: every submit must be refused with the HARD
		// failure code — fail-closed means no admission and no "try
		// again" invitation for something that was never created.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			c.SetRetryPolicy(resilience.Policy{Attempts: 1})
			for i := 0; i < iters; i++ {
				_, err := c.Submit(`&(executable=TRANSP)(count=1)(maxtime=30)`, "")
				switch {
				case err == nil:
					errCh <- fmt.Errorf("submit %d/%d admitted a job during total authorization failure", w, i)
				case gram.IsAuthorizationUnavailable(err):
					errCh <- fmt.Errorf("submit %d/%d got the retryable code, want hard failure: %v", w, i, err)
				case !gram.IsAuthorizationFailure(err):
					errCh <- fmt.Errorf("submit %d/%d = %v, want authorization system failure", w, i, err)
				}
			}
		}(w)
		// Management traffic: same outage, opposite contract — the job
		// exists, so the failure must be the RETRYABLE code.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			c.SetRetryPolicy(resilience.Policy{Attempts: 1})
			for i := 0; i < iters; i++ {
				_, err := c.Status(contact)
				switch {
				case err == nil:
					errCh <- fmt.Errorf("status %d/%d succeeded during total authorization failure", w, i)
				case !gram.IsAuthorizationUnavailable(err):
					errCh <- fmt.Errorf("status %d/%d = %v, want retryable authorization-unavailable", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Heal phase: the backend recovers, but the breaker is open. A
	// client that backs off and retries — the documented reaction to
	// CodeAuthorizationUnavailable — rides through the cooldown and the
	// half-open probe and gets its answer.
	chaos.SetConfig(faultinject.PDPConfig{})
	patient := newClient()
	patient.SetRetryPolicy(resilience.Policy{
		Attempts:  20,
		BaseDelay: 50 * time.Millisecond,
		MaxDelay:  100 * time.Millisecond,
	})
	st, err := patient.Status(contact)
	if err != nil {
		t.Fatalf("status after heal never recovered: %v", err)
	}
	if st.Owner != kate.Identity() {
		t.Errorf("recovered status owner = %s", st.Owner)
	}
	// Startup recovers too (the breaker closed on the management probe).
	if _, err := patient.Submit(`&(executable=TRANSP)(count=1)(maxtime=30)(simduration=60)`, ""); err != nil {
		t.Fatalf("submit after heal: %v", err)
	}

	// The breaker's life cycle was audited: it opened under the fault,
	// probed half-open after the cooldown, and closed on recovery.
	transitions := map[string]int{}
	for _, r := range log.Filter(func(r audit.Record) bool { return r.Action == "circuit-breaker" }) {
		if r.PDP != chaos.Name() {
			t.Errorf("breaker transition attributed to %q, want %q", r.PDP, chaos.Name())
		}
		transitions[r.Effect]++
	}
	for _, want := range []string{"open", "half-open", "closed"} {
		if transitions[want] == 0 {
			t.Errorf("no audited %q transition (got %v)", want, transitions)
		}
	}

	// No allocation leak: every refused startup reserved nothing, every
	// admitted job's reservation is committed when it finishes.
	res.Cluster.Advance(11 * time.Minute)
	u, err := tracker.UsageOf("NFC")
	if err != nil {
		t.Fatal(err)
	}
	if u.Reserved != 0 {
		t.Fatalf("allocation leak: %+v (refused/abandoned requests must not hold reservations)", u)
	}
	if u.Used == 0 {
		t.Error("admitted jobs committed no usage")
	}

	// The injected faults actually happened — the soak exercised what it
	// claims to.
	if calls, errs, hangs := chaos.Stats(); errs == 0 || hangs == 0 {
		t.Errorf("chaos stats calls=%d errors=%d hangs=%d: fault phase did not inject both classes", calls, errs, hangs)
	}
}
