package gram

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"gridauth/internal/core"
	"gridauth/internal/policy"
	"gridauth/internal/resilience"
)

// switchEnv is a callout-mode deployment in the given placement whose
// one PDP, bound to both callout types, permits every start and answers
// every other action with the decision next names.
func switchEnv(t *testing.T, placement Placement) (*env, *atomic.Value) {
	t.Helper()
	var next atomic.Value
	next.Store(core.PermitDecision("switch", "ok"))
	pdp := core.PDPFunc{ID: "switch", Fn: func(_ context.Context, r *core.Request) core.Decision {
		if r.Action == policy.ActionStart {
			return core.PermitDecision("switch", "start")
		}
		return next.Load().(core.Decision)
	}}
	e := newEnv(t, envOpts{
		mode:      AuthzCallout,
		placement: placement,
		registry: func(r *core.Registry) {
			r.Bind(core.CalloutJobManager, pdp)
			r.Bind(core.CalloutGatekeeper, pdp)
		},
	})
	return e, &next
}

// TestPlacementsAnswerAlike: moving the PEP between the Job Manager and
// the Gatekeeper (§6.2) moves where a decision is made, not what the
// client is told. Every management action and a subscription get the
// same wire code in both placements, for a permitting, a denying and a
// failing chain — a failure being the retryable
// authorization-unavailable everywhere but at startup.
func TestPlacementsAnswerAlike(t *testing.T) {
	decisions := []struct {
		name string
		d    core.Decision
		want string
	}{
		{"permit", core.PermitDecision("switch", "ok"), "ok"},
		{"deny", core.DenyDecision("switch", "no"), CodeAuthorizationDenied.String()},
		{"error", core.ErrorDecision("switch", "down"), CodeAuthorizationUnavailable.String()},
	}
	ops := []struct {
		name string
		do   func(c *Client, contact string) error
	}{
		{"status", func(c *Client, contact string) error { _, err := c.Status(contact); return err }},
		{"cancel", func(c *Client, contact string) error { return c.Cancel(contact) }},
		{"signal", func(c *Client, contact string) error { return c.Signal(contact, SignalSuspend, "") }},
		{"subscribe", func(c *Client, contact string) error {
			_, stop, err := c.Watch(contact)
			if err == nil {
				stop()
			}
			return err
		}},
	}
	codes := map[Placement]map[string]string{}
	for _, placement := range []Placement{PlacementJM, PlacementGatekeeper} {
		e, next := switchEnv(t, placement)
		bo := e.client(boDN)
		bo.SetRetryPolicy(resilience.Policy{Attempts: 1})
		codes[placement] = map[string]string{}
		for _, op := range ops {
			for _, dec := range decisions {
				next.Store(core.PermitDecision("switch", "ok"))
				contact, err := bo.Submit(boJob, "")
				if err != nil {
					t.Fatal(err)
				}
				next.Store(dec.d)
				code := "ok"
				if err := op.do(bo, contact); err != nil {
					var pe *ProtoError
					if !errors.As(err, &pe) {
						t.Fatalf("%s %s/%s: %v", placement, op.name, dec.name, err)
					}
					code = pe.Code.String()
				}
				codes[placement][op.name+"/"+dec.name] = code
				if code != dec.want {
					t.Errorf("%s placement, %s with a %s chain: %s, want %s", placement, op.name, dec.name, code, dec.want)
				}
			}
		}
	}
	for cell, jm := range codes[PlacementJM] {
		if gk := codes[PlacementGatekeeper][cell]; gk != jm {
			t.Errorf("%s: job-manager placement answers %s, gatekeeper placement %s", cell, jm, gk)
		}
	}
}

// TestCancelDetailNamesRequester: whichever placement authorized it, a
// cancel is recorded against the job as the act of the requester.
func TestCancelDetailNamesRequester(t *testing.T) {
	for _, placement := range []Placement{PlacementJM, PlacementGatekeeper} {
		t.Run(placement.String(), func(t *testing.T) {
			e := newEnv(t, envOpts{mode: AuthzCallout, placement: placement})
			bo, kate := e.client(boDN), e.client(kateDN)
			contact, err := bo.Submit(`&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(simduration=600)`, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := kate.Cancel(contact); err != nil {
				t.Fatal(err)
			}
			st, err := bo.Status(contact)
			if err != nil {
				t.Fatal(err)
			}
			if want := "canceled via GRAM by " + string(kateDN); st.State != StateCanceled || st.Detail != want {
				t.Fatalf("after kate's cancel: state %s, detail %q; want %s, %q", st.State, st.Detail, StateCanceled, want)
			}
		})
	}
}
