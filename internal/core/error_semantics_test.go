package core

import (
	"fmt"
	"testing"

	"gridauth/internal/policy"
)

// TestCombinersErrorSemantics pins down how an Error decision — the
// paper's "authorization system failure" class, and the effect every
// resilience degradation (timeout, open breaker) collapses into —
// propagates through the combiner under EVERY combination mode, for a
// lone caller ("sequential") and for several callers walking the one
// shared chain at once ("parallel"), as connection workers do.
func TestCombinersErrorSemantics(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	chains := []struct {
		name string
		pdps func() []PDP
		want map[CombineMode]Effect
	}{
		{
			name: "error alone",
			pdps: func() []PDP { return []PDP{errorAll("vo")} },
			want: map[CombineMode]Effect{
				RequireAllPermit: Error,
				DenyOverrides:    Error,
				PermitOverrides:  Error,
				FirstApplicable:  Deny, // no applicable decision -> default deny
			},
		},
		{
			name: "error then permit",
			pdps: func() []PDP { return []PDP{errorAll("vo"), permitAll("local")} },
			want: map[CombineMode]Effect{
				RequireAllPermit: Error,
				DenyOverrides:    Error,
				PermitOverrides:  Permit,
				FirstApplicable:  Permit,
			},
		},
		{
			name: "permit then error",
			pdps: func() []PDP { return []PDP{permitAll("vo"), errorAll("local")} },
			want: map[CombineMode]Effect{
				RequireAllPermit: Error,
				DenyOverrides:    Error,
				PermitOverrides:  Permit,
				FirstApplicable:  Permit,
			},
		},
		{
			name: "error then deny",
			pdps: func() []PDP { return []PDP{errorAll("vo"), denyAll("local")} },
			want: map[CombineMode]Effect{
				RequireAllPermit: Error,
				DenyOverrides:    Error,
				PermitOverrides:  Error, // first non-permit wins; the error came first
				FirstApplicable:  Deny,
			},
		},
		{
			name: "deny then error",
			pdps: func() []PDP { return []PDP{denyAll("vo"), errorAll("local")} },
			want: map[CombineMode]Effect{
				RequireAllPermit: Deny, // the deny resolves before the error is needed
				DenyOverrides:    Deny,
				PermitOverrides:  Deny,
				FirstApplicable:  Deny,
			},
		},
		{
			name: "abstain then error",
			pdps: func() []PDP { return []PDP{abstainAll("vo"), errorAll("local")} },
			want: map[CombineMode]Effect{
				RequireAllPermit: Error,
				DenyOverrides:    Error,
				PermitOverrides:  Error,
				FirstApplicable:  Deny,
			},
		},
	}
	for _, call := range callerShapes {
		for _, chain := range chains {
			for _, mode := range allModes {
				t.Run(fmt.Sprintf("%s/%s/%s", call.name, chain.name, mode), func(t *testing.T) {
					shared := NewCombined(mode, chain.pdps()...)
					for _, d := range call.run(func() Decision { return shared.Authorize(req) }) {
						if d.Effect != chain.want[mode] {
							t.Fatalf("Effect = %v (%s: %s), want %v", d.Effect, d.Source, d.Reason, chain.want[mode])
						}
					}
				})
			}
		}
	}
}

// callerShapes is the axis both tests here sweep: one caller, or
// parallelCallers of them on the same chain.
var callerShapes = []struct {
	name string
	run  func(decide func() Decision) []Decision
}{
	{"sequential", func(decide func() Decision) []Decision { return []Decision{decide()} }},
	{"parallel", inParallel},
}

// effectPDP counts evaluations and declares them side-effecting, like
// the allocation PDP reserving budget on evaluation.
type effectPDP struct {
	countingPDP
	effectful bool
}

func (p *effectPDP) SideEffecting() bool { return p.effectful }

func newEffectPDP(name string, effectful bool, d Decision) *effectPDP {
	p := &effectPDP{effectful: effectful}
	p.name = name
	p.d = func(*Request) Decision { return d }
	return p
}

// TestCombinersErrorShortCircuitsSideEffects covers early exit under
// failure: when an earlier source answers Error, a side-effecting PDP
// later in the chain (the allocation PDP's position) must not run at
// all, because its effect (a budget reservation) would be attached to a
// request that is about to be refused, and nothing would ever release
// it.
func TestCombinersErrorShortCircuitsSideEffects(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	for _, call := range callerShapes {
		t.Run(call.name, func(t *testing.T) {
			eff := newEffectPDP("alloc", true, PermitDecision("alloc", "reserved"))
			shared := NewCombined(RequireAllPermit, errorAll("vo"), eff)
			for _, d := range call.run(func() Decision { return shared.Authorize(req) }) {
				if d.Effect != Error {
					t.Fatalf("Effect = %v, want Error", d.Effect)
				}
			}
			if n := eff.calls.Load(); n != 0 {
				t.Fatalf("side-effecting PDP ran %d times behind an Error, want 0", n)
			}
		})
	}
}
