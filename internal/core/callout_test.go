package core

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// TestRegistryOptionsDirective exercises the reserved "options" config
// line: it must install protection options without binding a PDP, in
// either order relative to the driver lines.
func TestRegistryOptionsDirective(t *testing.T) {
	r := NewRegistry()
	RegisterBuiltinDrivers(r)
	cfg := CalloutJobManager + ` options pdp-timeout=250ms retries=2
` + CalloutJobManager + ` gt2-self-only`
	if err := r.LoadConfig(strings.NewReader(cfg)); err != nil {
		t.Fatal(err)
	}
	o := r.Options(CalloutJobManager)
	if o.PDPTimeout != 250*time.Millisecond || o.Retries != 2 {
		t.Fatalf("Options = %+v", o)
	}
	if !r.Configured(CalloutJobManager) {
		t.Fatal("the driver line after the options line bound nothing")
	}
	req := &Request{Subject: bo, Action: policy.ActionCancel, JobOwner: bo}
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
		t.Fatalf("InvokeContext = %v (%s)", d.Effect, d.Reason)
	}
}

// TestRegistryOptionsLinesMerge: two options lines for one callout
// type merge, each setting only its own keys, and leave every other
// type untouched.
func TestRegistryOptionsLinesMerge(t *testing.T) {
	r := NewRegistry()
	RegisterBuiltinDrivers(r)
	cfg := CalloutJobManager + ` options pdp-timeout=2s retries=1
` + CalloutJobManager + ` options breaker=on breaker-cooldown=3s
` + CalloutJobManager + ` gt2-self-only`
	if err := r.LoadConfig(strings.NewReader(cfg)); err != nil {
		t.Fatal(err)
	}
	o := r.Options(CalloutJobManager)
	if o.PDPTimeout != 2*time.Second || o.Retries != 1 || !o.Breaker || o.BreakerCooldown != 3*time.Second {
		t.Errorf("merged Options = %+v", o)
	}
	if o := r.Options(CalloutGatekeeper); o != (CalloutOptions{}) {
		t.Errorf("untouched type's Options = %+v", o)
	}
}

func TestRegistryOptionsErrors(t *testing.T) {
	cases := []string{
		CalloutJobManager + ` options breaker=maybe`,
		CalloutJobManager + ` options pdp-timeout=-3s`,
		CalloutJobManager + ` options pdp-timeout=fast`,
		CalloutJobManager + ` options retries=-1`,
		CalloutJobManager + ` options breaker-threshold=0`,
		CalloutJobManager + ` options turbo=on`,
	}
	for _, c := range cases {
		r := NewRegistry()
		err := r.LoadConfig(strings.NewReader(c))
		if err == nil {
			t.Errorf("LoadConfig(%q): expected error", c)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("LoadConfig(%q): %v is not a *ConfigError", c, err)
		}
	}
}

// TestRegistryRemovedOptionsRefused: a configuration file still
// carrying an option key a release removed fails at load with an error
// naming that key, and nothing from the line takes effect.
func TestRegistryRemovedOptionsRefused(t *testing.T) {
	for _, kv := range []string{"mode=sequential", "cache-shards=32", "cache=on", "cache=off", "cache-ttl=5s"} {
		key, _, _ := strings.Cut(kv, "=")
		r := NewRegistry()
		err := r.LoadConfig(strings.NewReader(CalloutJobManager + " options pdp-timeout=2s " + kv))
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Line != 1 ||
			!strings.Contains(ce.Msg, strconv.Quote(key)) || !strings.Contains(ce.Msg, "removed") {
			t.Errorf("options %s: err = %v, want a line-1 ConfigError naming the removed key", kv, err)
		}
		if o := r.Options(CalloutJobManager); o != (CalloutOptions{}) {
			t.Errorf("options %s: the refused line still set %+v", kv, o)
		}
	}
}

// TestRegistryCacheInvalidationVisibleNextRequest is the end-to-end
// staleness guarantee: a policy store update is enforced on the VERY
// NEXT request, with no hook between the store and the registry,
// because no decision outlives the request it was made for.
func TestRegistryCacheInvalidationVisibleNextRequest(t *testing.T) {
	grant := `/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = sim)`
	store := policy.NewStore(policy.MustParse(grant, "VO:NFC"))
	r := NewRegistry()
	r.Bind(CalloutJobManager, &StorePDP{Store: store})

	req := &Request{
		Subject: bo,
		Action:  policy.ActionStart,
		Spec:    rsl.NewSpec().Set("executable", "sim"),
	}
	for _, when := range []string{"initial", "repeated"} {
		if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
			t.Fatalf("%s request: %v (%s)", when, d.Effect, d.Reason)
		}
	}
	// The VO administrator revokes Bo's right to run sim.
	store.Replace(policy.MustParse(`/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = other)`, store.Current().Source))
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Deny {
		t.Fatalf("request after policy update: %v, want Deny (stale permit served)", d.Effect)
	}
}

// TestRegistryRebindInvalidatesCache: changing what a callout type
// MEANS (Bind) is enforced on the very next request.
func TestRegistryRebindInvalidatesCache(t *testing.T) {
	r := NewRegistry()
	r.Bind(CalloutJobManager, permitAll("vo"))
	req := &Request{Subject: bo, Action: policy.ActionStart}
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
		t.Fatalf("before rebind: %v", d.Effect)
	}
	r.Bind(CalloutJobManager, denyAll("local"))
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Deny {
		t.Fatalf("after binding a denying PDP: %v, want Deny", d.Effect)
	}
}

// TestRegistryDispatchDoesNotHoldLock: a PDP that calls back into the
// registry's configuration API from inside Authorize must not deadlock,
// because dispatch evaluates outside the registry lock.
func TestRegistryDispatchDoesNotHoldLock(t *testing.T) {
	r := NewRegistry()
	reentrant := PDPFunc{ID: "reentrant", Fn: func(context.Context, *Request) Decision {
		r.Bind("other_callout", permitAll("x")) // takes the write lock
		return PermitDecision("reentrant", "ok")
	}}
	r.Bind(CalloutJobManager, reentrant)
	done := make(chan Decision, 1)
	go func() { done <- r.InvokeContext(context.Background(), CalloutJobManager, &Request{Subject: bo}) }()
	select {
	case d := <-done:
		if d.Effect != Permit {
			t.Errorf("Effect = %v", d.Effect)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch holds the registry lock across PDP evaluation (deadlock)")
	}
}
