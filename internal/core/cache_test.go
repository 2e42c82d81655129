package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// fakeClock is a hand-advanced time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestDecisionCacheKeyFields(t *testing.T) {
	base := func() *Request {
		return &Request{
			Subject:  bo,
			Action:   policy.ActionStart,
			JobOwner: bo,
			Account:  "grid1",
			Spec:     rsl.NewSpec().Set("executable", "sim").Set("jobtag", "bio"),
		}
	}
	k0 := DecisionCacheKey(CalloutJobManager, base())
	if k0 != DecisionCacheKey(CalloutJobManager, base()) {
		t.Fatal("key is not deterministic")
	}
	variants := map[string]*Request{}
	r := base()
	r.Subject = kate
	variants["subject"] = r
	r = base()
	r.Action = policy.ActionCancel
	variants["action"] = r
	r = base()
	r.JobOwner = kate
	variants["jobowner"] = r
	r = base()
	r.Account = "grid2"
	variants["account"] = r
	r = base()
	r.Spec = rsl.NewSpec().Set("executable", "sim").Set("jobtag", "physics")
	variants["jobtag"] = r
	r = base()
	r.Spec = rsl.NewSpec().Set("executable", "rm").Set("jobtag", "bio")
	variants["executable"] = r
	r = base()
	r.Assertions = []*gsi.Assertion{{VO: "NFC", Holder: bo, Signature: []byte{1, 2, 3}}}
	variants["assertions"] = r
	for name, v := range variants {
		if DecisionCacheKey(CalloutJobManager, v) == k0 {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	if DecisionCacheKey(CalloutGatekeeper, base()) == k0 {
		t.Error("callout type is not part of the key")
	}
	// JobID is documented as excluded: management requests against
	// different jobs share entries.
	r = base()
	r.JobID = "https://gk/123"
	if DecisionCacheKey(CalloutJobManager, r) != k0 {
		t.Error("JobID must not affect the key")
	}
}

func TestDecisionCacheHitMissTTL(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewDecisionCache(CacheConfig{TTL: 5 * time.Second, Shards: 4, Clock: clk.Now})
	key := DecisionCacheKey(CalloutJobManager, &Request{Subject: bo, Action: policy.ActionStart})
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key, PermitDecision("vo", "ok"), c.Epoch())
	d, ok := c.Get(key)
	if !ok || d.Effect != Permit || d.Source != "vo" {
		t.Fatalf("Get = (%v, %v), want cached permit", d, ok)
	}
	clk.Advance(4 * time.Second)
	if _, ok := c.Get(key); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.Advance(2 * time.Second) // the Get above refreshed nothing; 6s > 5s after Put
	if _, ok := c.Get(key); ok {
		t.Fatal("entry served after its TTL")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("Stats = %+v, want 2 hits / 2 misses", st)
	}
}

func TestDecisionCacheOnlyCachesPermitAndDeny(t *testing.T) {
	c := NewDecisionCache(CacheConfig{})
	mk := func(i int) CacheKey {
		return DecisionCacheKey("t", &Request{Subject: bo, Action: fmt.Sprintf("a%d", i)})
	}
	c.Put(mk(0), PermitDecision("x", "ok"), c.Epoch())
	c.Put(mk(1), DenyDecision("x", "no"), c.Epoch())
	c.Put(mk(2), ErrorDecision("x", "backend down"), c.Epoch())
	c.Put(mk(3), AbstainDecision("x", "n/a"), c.Epoch())
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (Error and NotApplicable must not be cached)", c.Len())
	}
	if _, ok := c.Get(mk(2)); ok {
		t.Error("Error decision was cached")
	}
}

func TestDecisionCacheInvalidate(t *testing.T) {
	c := NewDecisionCache(CacheConfig{})
	key := DecisionCacheKey("t", &Request{Subject: bo, Action: policy.ActionStart})
	c.Put(key, PermitDecision("vo", "ok"), c.Epoch())
	if _, ok := c.Get(key); !ok {
		t.Fatal("warm entry missing")
	}
	c.Invalidate()
	if _, ok := c.Get(key); ok {
		t.Fatal("stale permit served after Invalidate")
	}
	// A fresh entry stored AFTER the bump is served normally.
	c.Put(key, DenyDecision("vo", "new policy"), c.Epoch())
	if d, ok := c.Get(key); !ok || d.Effect != Deny {
		t.Fatalf("post-invalidation store not served: (%v, %v)", d, ok)
	}
	if got := c.Stats().Invalidations; got != 1 {
		t.Errorf("Invalidations = %d, want 1", got)
	}
}

func TestDecisionCacheEviction(t *testing.T) {
	c := NewDecisionCache(CacheConfig{Shards: 1, MaxEntriesPerShard: 8})
	for i := 0; i < 100; i++ {
		key := DecisionCacheKey("t", &Request{Subject: bo, Action: fmt.Sprintf("a%d", i)})
		c.Put(key, PermitDecision("x", "ok"), c.Epoch())
	}
	if c.Len() > 8 {
		t.Errorf("Len = %d, want <= MaxEntriesPerShard (8)", c.Len())
	}
}

func TestDecisionCacheConcurrent(t *testing.T) {
	c := NewDecisionCache(CacheConfig{Shards: 8})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := DecisionCacheKey("t", &Request{Subject: bo, Action: fmt.Sprintf("a%d", i%17)})
				if i%31 == 0 {
					c.Invalidate()
				}
				if d, ok := c.Get(key); ok && d.Effect != Permit {
					t.Errorf("cached decision corrupted: %v", d)
					return
				}
				c.Put(key, PermitDecision("x", "ok"), c.Epoch())
			}
		}(g)
	}
	wg.Wait()
}

// countingPDP counts evaluations, to distinguish hits from misses.
type countingPDP struct {
	name  string
	calls atomic.Int64
	d     func(*Request) Decision
}

func (p *countingPDP) Name() string { return p.name }
func (p *countingPDP) Authorize(_ context.Context, req *Request) Decision {
	p.calls.Add(1)
	return p.d(req)
}

func TestCachedPDP(t *testing.T) {
	inner := &countingPDP{name: "vo", d: func(*Request) Decision { return PermitDecision("vo", "ok") }}
	cached := &CachedPDP{Inner: inner, Cache: NewDecisionCache(CacheConfig{}), Scope: "t"}
	req := &Request{Subject: bo, Action: policy.ActionStart}
	for i := 0; i < 10; i++ {
		if d := cached.Authorize(context.Background(), req); d.Effect != Permit {
			t.Fatalf("Effect = %v", d.Effect)
		}
	}
	if n := inner.calls.Load(); n != 1 {
		t.Errorf("inner evaluated %d times for 10 identical requests, want 1", n)
	}
}

// TestCachedPDPNeverPinsErrors is the dispatch-level guarantee behind
// TestDecisionCacheOnlyCachesPermitAndDeny: an Error decision (transient
// authorization system failure) flowing through a CachedPDP must be
// re-evaluated on every request — a cached Error would pin an outage for
// a whole TTL — and the recovery decision that follows IS cached.
func TestCachedPDPNeverPinsErrors(t *testing.T) {
	inner := &countingPDP{name: "vo"}
	inner.d = func(*Request) Decision {
		if inner.calls.Load() <= 2 {
			return ErrorDecision("vo", "backend down")
		}
		return PermitDecision("vo", "recovered")
	}
	cached := &CachedPDP{Inner: inner, Cache: NewDecisionCache(CacheConfig{}), Scope: "t"}
	req := &Request{Subject: bo, Action: policy.ActionStart}
	for i := 0; i < 2; i++ {
		if d := cached.Authorize(context.Background(), req); d.Effect != Error {
			t.Fatalf("call %d = %v, want the live Error", i, d.Effect)
		}
	}
	if n := inner.calls.Load(); n != 2 {
		t.Fatalf("inner evaluated %d times during the outage, want 2 (Error was served from cache)", n)
	}
	// The backend healed: the next request reaches it and its permit is
	// cached for the ones after.
	if d := cached.Authorize(context.Background(), req); d.Effect != Permit {
		t.Fatalf("post-recovery decision = %v, want Permit", d.Effect)
	}
	cached.Authorize(context.Background(), req)
	if n := inner.calls.Load(); n != 3 {
		t.Errorf("inner evaluated %d times, want 3: the recovery permit should be cached", n)
	}
}

// TestDecisionCachePutStaleEpoch: a Put carrying an epoch observed
// before an Invalidate must not publish the decision — it was computed
// against the old policy.
func TestDecisionCachePutStaleEpoch(t *testing.T) {
	c := NewDecisionCache(CacheConfig{})
	key := DecisionCacheKey("t", &Request{Subject: bo, Action: policy.ActionStart})
	epoch := c.Epoch()
	c.Invalidate() // policy changed while the decision was being computed
	c.Put(key, PermitDecision("vo", "ok"), epoch)
	if _, ok := c.Get(key); ok {
		t.Fatal("decision computed under a stale epoch was served")
	}
}

// TestCachedPDPInvalidateDuringEvaluation closes the window REVIEW.md
// flagged: an invalidation that fires WHILE the inner chain is
// evaluating (here, from inside the inner PDP itself) must prevent the
// in-flight decision from being cached, so the next request
// re-evaluates against the new policy.
func TestCachedPDPInvalidateDuringEvaluation(t *testing.T) {
	cache := NewDecisionCache(CacheConfig{})
	inner := &countingPDP{name: "vo"}
	inner.d = func(*Request) Decision {
		if inner.calls.Load() == 1 {
			cache.Invalidate() // concurrent policy mutation mid-evaluation
		}
		return PermitDecision("vo", "ok")
	}
	cached := &CachedPDP{Inner: inner, Cache: cache, Scope: "t"}
	req := &Request{Subject: bo, Action: policy.ActionStart}
	cached.Authorize(context.Background(), req)
	cached.Authorize(context.Background(), req)
	if n := inner.calls.Load(); n != 2 {
		t.Fatalf("inner evaluated %d times, want 2: the decision computed across the invalidation must not be served from cache", n)
	}
	// With no further mutations the second decision IS cached.
	cached.Authorize(context.Background(), req)
	if n := inner.calls.Load(); n != 2 {
		t.Errorf("inner evaluated %d times, want 2: post-invalidation decision should now be cached", n)
	}
}

// TestCacheTTLClamped: no construction path may produce a cache whose
// TTL exceeds MaxCacheTTL — it is the only bound on how long an
// expired credential keeps satisfying a cached permit.
func TestCacheTTLClamped(t *testing.T) {
	if got := NewDecisionCache(CacheConfig{TTL: time.Hour}).TTL(); got != MaxCacheTTL {
		t.Errorf("NewDecisionCache TTL = %v, want clamp to %v", got, MaxCacheTTL)
	}
	r := NewRegistry()
	r.SetCalloutOptions(CalloutJobManager, CalloutOptions{Cache: true, CacheTTL: time.Hour})
	if got := r.Options(CalloutJobManager).CacheTTL; got != MaxCacheTTL {
		t.Errorf("SetCalloutOptions CacheTTL = %v, want clamp to %v", got, MaxCacheTTL)
	}
}

// TestRegistryOptionsDirective exercises the reserved "options" config
// line: it must install cached evaluation without binding a PDP, in
// either order relative to the driver lines.
func TestRegistryOptionsDirective(t *testing.T) {
	r := NewRegistry()
	RegisterBuiltinDrivers(r)
	cfg := CalloutJobManager + ` options cache=on cache-ttl=250ms
` + CalloutJobManager + ` gt2-self-only`
	if err := r.LoadConfigString(cfg); err != nil {
		t.Fatal(err)
	}
	o := r.Options(CalloutJobManager)
	if !o.Cache || o.CacheTTL != 250*time.Millisecond {
		t.Fatalf("Options = %+v", o)
	}
	req := &Request{Subject: bo, Action: policy.ActionCancel, JobOwner: bo}
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
		t.Fatalf("InvokeContext = %v (%s)", d.Effect, d.Reason)
	}
	// Second identical request must be a cache hit.
	r.InvokeContext(context.Background(), CalloutJobManager, req)
	st := r.CacheStats()[CalloutJobManager]
	if st.Hits < 1 {
		t.Errorf("CacheStats = %+v, want at least one hit", st)
	}
}

// TestRegistryOptionsLinesMerge: two options lines for one callout
// type merge, each setting only its own keys, and leave every other
// type untouched.
func TestRegistryOptionsLinesMerge(t *testing.T) {
	r := NewRegistry()
	RegisterBuiltinDrivers(r)
	cfg := CalloutJobManager + ` options cache=on cache-ttl=5s
` + CalloutJobManager + ` options pdp-timeout=2s retries=1 breaker=on
` + CalloutJobManager + ` gt2-self-only`
	if err := r.LoadConfigString(cfg); err != nil {
		t.Fatal(err)
	}
	o := r.Options(CalloutJobManager)
	if !o.Cache || o.CacheTTL != 5*time.Second || o.PDPTimeout != 2*time.Second || o.Retries != 1 || !o.Breaker {
		t.Errorf("merged Options = %+v", o)
	}
	if o := r.Options(CalloutGatekeeper); o != (CalloutOptions{}) {
		t.Errorf("untouched type's Options = %+v", o)
	}
}

func TestRegistryOptionsErrors(t *testing.T) {
	cases := []string{
		CalloutJobManager + ` options cache=maybe`,
		CalloutJobManager + ` options cache-ttl=-3s`,
		CalloutJobManager + ` options cache-ttl=fast`,
		CalloutJobManager + ` options cache-ttl=2h`,
		CalloutJobManager + ` options turbo=on`,
	}
	for _, c := range cases {
		r := NewRegistry()
		err := r.LoadConfigString(c)
		if err == nil {
			t.Errorf("LoadConfigString(%q): expected error", c)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("LoadConfigString(%q): %v is not a *ConfigError", c, err)
		}
	}
}

// TestRegistryRemovedOptionsRefused: a configuration file still
// carrying an option key a release removed fails at load with an error
// naming that key, and nothing from the line takes effect.
func TestRegistryRemovedOptionsRefused(t *testing.T) {
	for _, kv := range []string{"mode=sequential", "cache-shards=32"} {
		key, _, _ := strings.Cut(kv, "=")
		r := NewRegistry()
		err := r.LoadConfigString(CalloutJobManager + " options cache=on " + kv)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Line != 1 ||
			!strings.Contains(ce.Msg, strconv.Quote(key)) || !strings.Contains(ce.Msg, "removed") {
			t.Errorf("options %s: err = %v, want a line-1 ConfigError naming the removed key", kv, err)
		}
		if r.Options(CalloutJobManager).Cache {
			t.Errorf("options %s: the refused line still turned the cache on", kv)
		}
	}
}

// TestCacheRefusedBesideSideEffectingPDP: whichever of the cache and a
// side-effecting PDP reaches a callout type second is refused, on every
// configuration path, and a refused config line names its line. After
// the refusal no chain holds both, so every request still reaches the
// PDP and fires its effect.
func TestCacheRefusedBesideSideEffectingPDP(t *testing.T) {
	cached := CalloutOptions{Cache: true, CacheTTL: MaxCacheTTL}
	cases := []struct {
		name string
		line int // the ConfigError line; 0 for an API call
		set  func(r *Registry, alloc PDP) error
	}{
		{"SetCalloutOptions", 0, func(r *Registry, alloc PDP) error {
			if err := r.Bind(CalloutJobManager, alloc); err != nil {
				t.Fatal(err)
			}
			return r.SetCalloutOptions(CalloutJobManager, cached)
		}},
		{"later Bind", 0, func(r *Registry, alloc PDP) error {
			if err := r.SetCalloutOptions(CalloutJobManager, cached); err != nil {
				t.Fatal(err)
			}
			return r.Bind(CalloutJobManager, alloc)
		}},
		{"options line", 2, func(r *Registry, alloc PDP) error {
			r.RegisterDriver("alloc", func(map[string]string) (PDP, error) { return alloc, nil })
			return r.LoadConfigString(CalloutJobManager + " alloc\n" + CalloutJobManager + " options cache=on\n")
		}},
		{"driver line", 2, func(r *Registry, alloc PDP) error {
			r.RegisterDriver("alloc", func(map[string]string) (PDP, error) { return alloc, nil })
			return r.LoadConfigString(CalloutJobManager + " options cache=on\n" + CalloutJobManager + " alloc\n")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			alloc := newEffectPDP("alloc", true, PermitDecision("alloc", "reserved"))
			err := tc.set(r, alloc)
			if err == nil || !strings.Contains(err.Error(), "side-effecting PDP alloc") {
				t.Fatalf("err = %v, want a refusal naming the side-effecting PDP", err)
			}
			var ce *ConfigError
			if isConfig := errors.As(err, &ce); isConfig != (tc.line > 0) || (isConfig && ce.Line != tc.line) {
				t.Errorf("err = %#v, want a ConfigError on line %d only for a config file", err, tc.line)
			}
			if r.Options(CalloutJobManager).Cache && r.Configured(CalloutJobManager) {
				t.Fatal("the refused call still built a cached chain over the side-effecting PDP")
			}
			if !r.Configured(CalloutJobManager) {
				return
			}
			req := &Request{Subject: bo, Action: policy.ActionStart}
			for i := 0; i < 3; i++ {
				r.InvokeContext(context.Background(), CalloutJobManager, req)
			}
			if n := alloc.calls.Load(); n != 3 {
				t.Errorf("side-effecting PDP ran %d times for 3 requests", n)
			}
		})
	}
}

// TestRegistryCacheInvalidationVisibleNextRequest is the end-to-end
// staleness guarantee: with caching on, a policy update wired through
// Store.OnChange -> Registry.InvalidateCaches is reflected on the VERY
// NEXT request — a cached permit from the old policy is never served.
func TestRegistryCacheInvalidationVisibleNextRequest(t *testing.T) {
	grant := `/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = sim)`
	store := policy.NewStore(policy.MustParse(grant, "VO:NFC"))
	r := NewRegistry()
	r.Bind(CalloutJobManager, &StorePDP{Store: store})
	r.SetCalloutOptions(CalloutJobManager, CalloutOptions{Cache: true, CacheTTL: MaxCacheTTL})
	store.OnChange(r.InvalidateCaches)

	req := &Request{
		Subject: bo,
		Action:  policy.ActionStart,
		Spec:    rsl.NewSpec().Set("executable", "sim"),
	}
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
		t.Fatalf("initial request: %v (%s)", d.Effect, d.Reason)
	}
	// Warm hit — the TTL is the maximum allowed, far longer than this
	// test runs, so only invalidation can unseat it.
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Permit {
		t.Fatalf("warm request: %v", d.Effect)
	}
	// The VO administrator revokes Bo's right to run sim.
	if err := store.UpdateText(`/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = other)`); err != nil {
		t.Fatal(err)
	}
	if d := r.InvokeContext(context.Background(), CalloutJobManager, req); d.Effect != Deny {
		t.Fatalf("request after policy update: %v, want Deny (stale permit served)", d.Effect)
	}
}

// TestRegistryRebindInvalidatesCache: changing what a callout type MEANS
// (Bind/Unbind) must orphan cached decisions even without an
// OnChange hook.
func TestRegistryRebindInvalidatesCache(t *testing.T) {
	r := NewRegistry()
	r.Bind(CalloutJobManager, permitAll("vo"))
	r.SetCalloutOptions(CalloutJobManager, CalloutOptions{Cache: true, CacheTTL: MaxCacheTTL})
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
