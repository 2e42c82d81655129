package core

import (
	"context"
	"testing"
	"time"

	"gridauth/internal/obs"
	"gridauth/internal/policy"
)

// sideEffectPDP is a test PDP declaring evaluation side effects.
type sideEffectPDP struct{ PDP }

func (p sideEffectPDP) SideEffecting() bool { return true }

// nonBlockingPDP is a test PDP declaring non-blocking evaluation.
type nonBlockingPDP struct{ PDP }

func (p nonBlockingPDP) NonBlocking() bool { return true }

func TestTracedTransparency(t *testing.T) {
	w := traced(sideEffectPDP{permitAll("alloc")})
	if w.Name() != "alloc" {
		t.Errorf("Name = %q, want inner name", w.Name())
	}
	if !IsSideEffecting(w) {
		t.Error("traced wrapper hides SideEffecting — the per-PDP protection would retry side effects")
	}
	if IsNonBlocking(w) {
		t.Error("traced wrapper invents NonBlocking")
	}
	w2 := traced(nonBlockingPDP{permitAll("fast")})
	if !IsNonBlocking(w2) {
		t.Error("traced wrapper hides NonBlocking")
	}
	if IsSideEffecting(w2) {
		t.Error("traced wrapper invents SideEffecting")
	}
}

func TestTracedRecordsSpans(t *testing.T) {
	reg := NewRegistry()
	reg.Bind(CalloutJobManager, permitAll("vo"))
	reg.Bind(CalloutJobManager, denyAll("local"))
	req := &Request{Subject: bo, Action: policy.ActionStart}

	// Without a trace on the context: plain dispatch, no panic, same
	// decision.
	if d := reg.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Deny {
		t.Fatalf("untraced Effect = %v, want Deny", d.Effect)
	}

	tr := obs.NewTrace("rid-t", string(bo))
	ctx := obs.WithTrace(context.Background(), tr)
	d := reg.InvokeContext(ctx, CalloutJobManager, req)
	if d.Effect != Deny {
		t.Fatalf("Effect = %v, want Deny", d.Effect)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want one per PDP: %+v", len(spans), spans)
	}
	byPDP := make(map[string]obs.Span, len(spans))
	for _, sp := range spans {
		byPDP[sp.PDP] = sp
	}
	if sp := byPDP["vo"]; sp.Effect != "permit" {
		t.Errorf("vo span = %+v, want effect permit", sp)
	}
	if sp := byPDP["local"]; sp.Effect != "deny" || sp.Source != "local" {
		t.Errorf("local span = %+v, want effect deny source local", sp)
	}
}

func TestTracedCacheHitSpan(t *testing.T) {
	m := obs.NewMetrics()
	reg := NewRegistry()
	reg.SetMetrics(m)
	reg.Bind(CalloutJobManager, permitAll("vo"))
	reg.SetCalloutOptions(CalloutJobManager, CalloutOptions{Cache: true})
	req := &Request{Subject: bo, Action: policy.ActionStart}

	// Miss, then hit.
	tr1 := obs.NewTrace("rid-1", string(bo))
	reg.InvokeContext(obs.WithTrace(context.Background(), tr1), CalloutJobManager, req)
	tr2 := obs.NewTrace("rid-2", string(bo))
	reg.InvokeContext(obs.WithTrace(context.Background(), tr2), CalloutJobManager, req)

	if got := len(tr1.Spans()); got != 1 {
		t.Fatalf("miss trace spans = %d, want 1", got)
	}
	if tr1.Spans()[0].CacheHit {
		t.Error("miss span marked CacheHit")
	}
	hit := tr2.Spans()
	if len(hit) != 1 || !hit[0].CacheHit || hit[0].Effect != "permit" {
		t.Errorf("hit trace spans = %+v, want one CacheHit permit span", hit)
	}
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Errorf("cache counters = %d hits / %d misses, want 1/1",
			m.CacheHits.Load(), m.CacheMisses.Load())
	}
}

func TestInvokeContextMetrics(t *testing.T) {
	m := obs.NewMetrics()
	reg := NewRegistry()
	reg.SetMetrics(m)
	reg.Bind(CalloutJobManager, permitAll("vo"))
	req := &Request{Subject: bo, Action: policy.ActionStart}

	reg.InvokeContext(context.Background(), CalloutJobManager, req)
	reg.InvokeContext(context.Background(), "unconfigured", req)
	if m.DecisionsPermit.Load() != 1 {
		t.Errorf("permit counter = %d, want 1", m.DecisionsPermit.Load())
	}
	if m.DecisionsError.Load() != 1 {
		t.Errorf("error counter = %d, want 1 (unconfigured callout fails closed)", m.DecisionsError.Load())
	}
	if m.DecisionSeconds.Count() != 1 {
		t.Errorf("latency observations = %d, want 1 (unconfigured dispatch is not a chain evaluation)", m.DecisionSeconds.Count())
	}
	if m.DecisionSeconds.Sum() <= 0 {
		t.Error("latency sum not positive")
	}
	_ = time.Now
}

// namedPDP counts Name calls, to show a prebuilt chain asks once.
type namedPDP struct {
	PDP
	calls *int
}

func (p namedPDP) Name() string {
	*p.calls++
	return p.PDP.Name()
}

// TestRegistryChainNameFrozen: the chains Registry prebuilds carry the
// name an unfrozen combiner over the same members renders, and deciding
// a request no longer walks the members for it.
func TestRegistryChainNameFrozen(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	var calls int
	members := []PDP{namedPDP{permitAll("vo"), &calls}, namedPDP{abstainAll("local"), &calls}}
	reg := NewRegistry()
	for _, p := range members {
		reg.Bind(CalloutJobManager, p)
	}
	want := NewCombined(RequireAllPermit, members...).Name()
	before := calls
	for i := 0; i < 3; i++ {
		if d := reg.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit || d.Source != want {
			t.Fatalf("decision %v from %q, want a permit from %q", d.Effect, d.Source, want)
		}
	}
	if calls != before {
		t.Errorf("three permits asked members for their names %d times", calls-before)
	}
}
