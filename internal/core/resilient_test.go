package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// scriptedPDP answers Error for its first errors calls, then Permit
// (errors < 0: Error forever); it counts its calls.
type scriptedPDP struct {
	id     string
	errors int
	mu     sync.Mutex
	calls  int
}

func (p *scriptedPDP) Name() string { return p.id }

func (p *scriptedPDP) Authorize(context.Context, *Request) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.errors < 0 || p.calls <= p.errors {
		return ErrorDecision(p.id, "backend down")
	}
	return PermitDecision(p.id, "ok")
}

func (p *scriptedPDP) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// TestBareRegistryEnforcesProtectionOptions: a registry built with
// NewRegistry alone — no gatekeeper assembly around it — enforces the
// pdp-timeout, retries and breaker an "options" line asks for.
func TestBareRegistryEnforcesProtectionOptions(t *testing.T) {
	const hang = 2 * time.Second
	setup := func(t *testing.T, p PDP) *Registry {
		t.Helper()
		reg := NewRegistry()
		reg.Bind(CalloutJobManager, p)
		err := reg.LoadConfigString(CalloutJobManager + " options pdp-timeout=20ms retries=2 breaker=on breaker-threshold=2")
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	req := &Request{Subject: bo, Action: "start"}

	t.Run("hanging PDP times out", func(t *testing.T) {
		hanger := PDPFunc{ID: "hanger", Fn: func(context.Context, *Request) Decision {
			time.Sleep(hang) // ignores its context: only the watchdog bounds it
			return PermitDecision("hanger", "too late")
		}}
		reg := setup(t, hanger)
		start := time.Now()
		d := reg.InvokeContext(context.Background(), CalloutJobManager, req)
		if want := ErrorDecision("resilient(hanger)", "callout hanger timed out after 20ms"); d != want {
			t.Fatalf("decision = %+v, want %+v", d, want)
		}
		if took := time.Since(start); took > hang/2 {
			t.Errorf("decision took %v, want well inside the %v hang", took, hang)
		}
	})

	t.Run("transient Error is retried", func(t *testing.T) {
		p := &scriptedPDP{id: "flaky", errors: 2}
		d := setup(t, p).InvokeContext(context.Background(), CalloutJobManager, req)
		if d.Effect != Permit || p.callCount() != 3 {
			t.Fatalf("decision = %+v after %d calls, want Permit after 3", d, p.callCount())
		}
	})

	t.Run("dead PDP trips the breaker", func(t *testing.T) {
		p := &scriptedPDP{id: "dead", errors: -1}
		reg := setup(t, p)
		for i := 0; i < 2; i++ {
			if d := reg.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Error {
				t.Fatalf("call %d = %+v, want Error", i, d)
			}
		}
		consulted := p.callCount()
		d := reg.InvokeContext(context.Background(), CalloutJobManager, req)
		if want := ErrorDecision("resilient(dead)", "circuit open: resilient(dead) is shedding calls while dead recovers"); d != want {
			t.Fatalf("decision = %+v, want %+v", d, want)
		}
		if p.callCount() != consulted {
			t.Error("an open breaker still consulted the dead PDP")
		}
	})
}

// TestProtectionNamesAndForwardsCapabilities: a protected member is
// named resilient(<inner>) and declares exactly the inner PDP's side
// effects, so the tracing decorator around it forwards them too.
func TestProtectionNamesAndForwardsCapabilities(t *testing.T) {
	o := CalloutOptions{PDPTimeout: time.Second}
	eff := protect(sideEffectPDP{permitAll("alloc")}, o, nil, nil)
	if eff.Name() != "resilient(alloc)" || !IsSideEffecting(eff) || !IsSideEffecting(traced(eff)) {
		t.Errorf("protected side-effecting PDP: name %q, side-effecting %v", eff.Name(), IsSideEffecting(eff))
	}
	if plain := protect(permitAll("vo"), o, nil, nil); plain.Name() != "resilient(vo)" || IsSideEffecting(plain) {
		t.Errorf("protected plain PDP: name %q, side-effecting %v", plain.Name(), IsSideEffecting(plain))
	}
}
