package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridauth/internal/obs"
)

// Well-known abstract callout types, mirroring the callout points the
// paper inserts into GRAM.
const (
	// CalloutJobManager guards job management requests in the Job
	// Manager: before creating a job manager request and before cancel,
	// query (information) and signal.
	CalloutJobManager = "globus_gram_jobmanager_authz"
	// CalloutGatekeeper guards job startup in the Gatekeeper (the
	// alternate PEP placement discussed in §6.2).
	CalloutGatekeeper = "globus_gatekeeper_authz"
)

// OptionsDirective is the reserved word that, in a callout
// configuration line's driver position, tunes how a callout type is
// EVALUATED rather than binding a PDP:
//
//	globus_gram_jobmanager_authz options cache=on cache-ttl=5s
//	globus_gram_jobmanager_authz options pdp-timeout=500ms retries=2 breaker=on
//
// It cannot be registered as a driver name.
const OptionsDirective = "options"

// Driver creates a PDP from configuration parameters. Drivers stand in
// for the dynamic libraries the C prototype loaded with dlopen.
type Driver func(params map[string]string) (PDP, error)

// ConfigError reports a malformed callout configuration.
type ConfigError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("callout config: line %d: %s", e.Line, e.Msg)
}

// CalloutOptions tunes how one callout type's PDP chain is evaluated.
// The zero value is the paper's prototype behaviour: no memoization,
// no per-PDP protection.
type CalloutOptions struct {
	// Cache memoizes Permit/Deny decisions in a sharded TTL cache keyed
	// on the request's canonical digest. Enable only for side-effect
	// free chains (see CachedPDP).
	Cache bool
	// CacheTTL bounds entry lifetime (default 5s, clamped to
	// MaxCacheTTL: the TTL is the only bound on time-based credential
	// validity the cache key cannot see).
	CacheTTL time.Duration
	// PDPTimeout bounds each chain member's evaluation per callout; an
	// overrun becomes an Error decision (authorization system failure).
	// Applied by the installed PDP wrapper (internal/resilience); 0
	// disables.
	PDPTimeout time.Duration
	// Retries is how many extra attempts a transient Error decision
	// gets, with jittered exponential backoff (0 disables). Permit,
	// Deny and NotApplicable never retry, and side-effecting PDPs are
	// never retried regardless.
	Retries int
	// RetryBackoff is the base backoff before the first retry (0
	// selects the resilience default, 25ms).
	RetryBackoff time.Duration
	// Breaker enables a per-PDP circuit breaker: consecutive Error
	// decisions trip it open and calls are shed (failing fast with an
	// Error decision) until a cooldown probe succeeds.
	Breaker bool
	// BreakerThreshold is the consecutive-failure trip point (0 selects
	// 5).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay (0 selects 5s).
	BreakerCooldown time.Duration
}

// resilient reports whether the options ask for any per-PDP
// protection, i.e. whether the installed PDP wrapper has work to do.
func (o CalloutOptions) resilient() bool {
	return o.PDPTimeout > 0 || o.Retries > 0 || o.Breaker
}

// PDPWrapper decorates each member of a callout chain when the chain
// is rebuilt. It is how the resilience layer (internal/resilience)
// injects timeout, retry and circuit-breaker wrappers without a
// core → resilience dependency: the registry parses the knobs
// (CalloutOptions), the wrapper implements them.
type PDPWrapper func(pdp PDP, o CalloutOptions) PDP

// Registry maps abstract callout types to configured PDP chains, and
// driver names to factories. It is the Go analogue of the prototype's
// "runtime configurable callouts": configuration happens "either through
// a configuration file or an API call".
//
// The registry PREBUILDS each callout type's evaluation chain (the
// combiner, optionally wrapped in a decision cache) whenever its
// configuration changes. Dispatch therefore only reads one pointer
// under the read lock and evaluates entirely outside
// it: a slow PDP can never block Bind, RegisterDriver or any other
// configuration call, and dispatch allocates nothing per request.
type Registry struct {
	mu       sync.RWMutex
	drivers  map[string]Driver
	callouts map[string][]PDP
	opts     map[string]CalloutOptions
	caches   map[string]*DecisionCache
	chains   map[string]PDP
	mode     CombineMode
	wrapper  PDPWrapper
	metrics  *obs.Metrics
}

// NewRegistry returns a registry combining each callout type's PDPs with
// RequireAllPermit, the paper's combination rule.
func NewRegistry() *Registry {
	return &Registry{
		drivers:  make(map[string]Driver),
		callouts: make(map[string][]PDP),
		opts:     make(map[string]CalloutOptions),
		caches:   make(map[string]*DecisionCache),
		chains:   make(map[string]PDP),
		mode:     RequireAllPermit,
	}
}

// SetMode changes the combination rule applied when a callout type has
// several configured PDPs (ablation hook).
func (r *Registry) SetMode(mode CombineMode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mode = mode
	for t := range r.callouts {
		r.rebuildLocked(t)
	}
}

// SetPDPWrapper installs (or, with nil, removes) the decorator applied
// to every chain member on rebuild, and rebuilds all chains. Callout
// types whose options request no protection are unaffected — the
// wrapper is consulted but expected to return the PDP unchanged.
func (r *Registry) SetPDPWrapper(w PDPWrapper) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrapper = w
	for t := range r.callouts {
		r.rebuildLocked(t)
	}
}

// SetMetrics installs (or, with nil, removes) the metric set dispatch
// reports into: decision counts by effect and end-to-end callout
// latency at InvokeContext, cache hits/misses at each CachedPDP. All
// chains are rebuilt so existing cache wrappers pick the metrics up.
func (r *Registry) SetMetrics(m *obs.Metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = m
	for t := range r.callouts {
		r.rebuildLocked(t)
	}
}

// Metrics returns the installed metric set, or nil.
func (r *Registry) Metrics() *obs.Metrics {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.metrics
}

// RegisterDriver installs a driver under a name, replacing any previous
// registration. The name "options" is reserved for the configuration
// directive and is never dispatched to.
func (r *Registry) RegisterDriver(name string, d Driver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drivers[name] = d
}

// Drivers returns the sorted names of registered drivers.
func (r *Registry) Drivers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.drivers))
	for n := range r.drivers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Bind configures a PDP instance for an abstract callout type via the API
// (the non-file configuration path).
func (r *Registry) Bind(calloutType string, pdp PDP) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.callouts[calloutType] = append(r.callouts[calloutType], pdp)
	r.rebuildLocked(calloutType)
}

// Unbind removes every PDP configured for the callout type.
func (r *Registry) Unbind(calloutType string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.callouts, calloutType)
	r.rebuildLocked(calloutType)
}

// Configured reports whether any PDP is bound to the callout type.
func (r *Registry) Configured(calloutType string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.callouts[calloutType]) > 0
}

// SetCalloutOptions replaces the evaluation options of a callout type
// and rebuilds its chain. Enabling the cache creates it; re-applying
// options recreates it (and thus drops every entry).
func (r *Registry) SetCalloutOptions(calloutType string, o CalloutOptions) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o.CacheTTL > MaxCacheTTL {
		// Clamp rather than error on the API path, so Options() reports
		// the TTL the cache actually enforces.
		o.CacheTTL = MaxCacheTTL
	}
	r.opts[calloutType] = o
	if o.Cache {
		r.caches[calloutType] = NewDecisionCache(CacheConfig{TTL: o.CacheTTL})
	} else {
		delete(r.caches, calloutType)
	}
	r.rebuildLocked(calloutType)
}

// Options returns the evaluation options of a callout type.
func (r *Registry) Options(calloutType string) CalloutOptions {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.opts[calloutType]
}

// InvalidateCaches bumps the policy epoch of every decision cache in
// the registry. Policy mutation points (policy.Store updates, VO
// membership changes, Akenti certificate stores) call this — usually
// via an OnChange hook — so no stale permit survives a policy change.
func (r *Registry) InvalidateCaches() {
	r.mu.RLock()
	caches := make([]*DecisionCache, 0, len(r.caches))
	for _, c := range r.caches {
		caches = append(caches, c)
	}
	r.mu.RUnlock()
	for _, c := range caches {
		c.Invalidate()
	}
}

// CacheStats returns a snapshot of each cached callout type's counters.
func (r *Registry) CacheStats() map[string]CacheStats {
	r.mu.RLock()
	caches := make(map[string]*DecisionCache, len(r.caches))
	for t, c := range r.caches {
		caches[t] = c
	}
	r.mu.RUnlock()
	out := make(map[string]CacheStats, len(caches))
	for t, c := range caches {
		out[t] = c.Stats()
	}
	return out
}

// rebuildLocked recomputes the prebuilt evaluation chain of a callout
// type. Callers hold r.mu. Existing caches are invalidated (not
// dropped): a Bind/Unbind/SetMode changes what decisions mean, so
// entries from before the change must never be served.
func (r *Registry) rebuildLocked(calloutType string) {
	pdps := r.callouts[calloutType]
	if len(pdps) == 0 {
		delete(r.chains, calloutType)
		return
	}
	o := r.opts[calloutType]
	if r.wrapper != nil && o.resilient() {
		wrapped := make([]PDP, len(pdps))
		for i, p := range pdps {
			wrapped[i] = r.wrapper(p, o)
		}
		pdps = wrapped
	}
	// Every member gets the tracing decorator, outside any resilience
	// wrapper, so a span covers the whole evaluation including retries
	// and breaker sheds. Without a trace on the request context the
	// decorator is a single context lookup.
	members := make([]PDP, len(pdps))
	for i, p := range pdps {
		members[i] = traced(p)
	}
	combined := NewCombined(r.mode, members...)
	combined.freezeName()
	var chain PDP = combined
	if o.Cache {
		cache := r.caches[calloutType]
		if cache == nil {
			cache = NewDecisionCache(CacheConfig{TTL: o.CacheTTL})
			r.caches[calloutType] = cache
		} else {
			cache.Invalidate()
		}
		chain = &CachedPDP{Inner: chain, Cache: cache, Scope: calloutType, Metrics: r.metrics}
	}
	r.chains[calloutType] = chain
}

// parseCalloutOptions applies key=value pairs from an "options"
// configuration line on top of existing options.
func parseCalloutOptions(base CalloutOptions, params map[string]string) (CalloutOptions, error) {
	o := base
	for k, v := range params {
		switch k {
		case "cache":
			switch v {
			case "on":
				o.Cache = true
			case "off":
				o.Cache = false
			default:
				return o, fmt.Errorf("cache must be on or off, got %q", v)
			}
		case "cache-ttl":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("cache-ttl must be a positive duration, got %q", v)
			}
			if d > MaxCacheTTL {
				return o, fmt.Errorf("cache-ttl %q exceeds the %v cap (the TTL bounds how long an expired assertion can keep satisfying a cached permit)", v, MaxCacheTTL)
			}
			o.CacheTTL = d
		case "pdp-timeout":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("pdp-timeout must be a positive duration, got %q", v)
			}
			o.PDPTimeout = d
		case "retries":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return o, fmt.Errorf("retries must be a non-negative integer, got %q", v)
			}
			o.Retries = n
		case "retry-backoff":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("retry-backoff must be a positive duration, got %q", v)
			}
			o.RetryBackoff = d
		case "breaker":
			switch v {
			case "on":
				o.Breaker = true
			case "off":
				o.Breaker = false
			default:
				return o, fmt.Errorf("breaker must be on or off, got %q", v)
			}
		case "breaker-threshold":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return o, fmt.Errorf("breaker-threshold must be a positive integer, got %q", v)
			}
			o.BreakerThreshold = n
		case "breaker-cooldown":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("breaker-cooldown must be a positive duration, got %q", v)
			}
			o.BreakerCooldown = d
		case "mode", "cache-shards":
			// Named, not lumped with typos: a file written for an older
			// release must fail at startup, not run with the line ignored.
			return o, fmt.Errorf("option %q was removed: chains are always walked in order and the decision cache always has %d shards; delete the key", k, cacheShardCount)
		default:
			return o, fmt.Errorf("unknown option %q (want cache, cache-ttl, pdp-timeout, retries, retry-backoff, breaker, breaker-threshold, breaker-cooldown)", k)
		}
	}
	return o, nil
}

// LoadConfig reads a callout configuration file. Each non-comment line
// has the form
//
//	<abstract-type> <driver> [key=value ...]
//
// mirroring the prototype's "abstract callout name, the path to the
// dynamic library that implements the callout and the symbol for the
// callout in the library": here the driver name plays the library+symbol
// role and key=value pairs carry driver parameters (policy file paths,
// source labels, ...).
//
// The reserved driver word "options" instead tunes evaluation of the
// callout type (see CalloutOptions):
//
//	globus_gram_jobmanager_authz options cache=on cache-ttl=5s
func (r *Registry) LoadConfig(rd io.Reader) error {
	sc := bufio.NewScanner(rd)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return &ConfigError{Line: lineNo, Msg: "want: <abstract-type> <driver> [key=value ...]"}
		}
		calloutType, driverName := fields[0], fields[1]
		params := make(map[string]string, len(fields)-2)
		for _, kv := range fields[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return &ConfigError{Line: lineNo, Msg: fmt.Sprintf("malformed parameter %q", kv)}
			}
			params[k] = v
		}
		if driverName == OptionsDirective {
			o, err := parseCalloutOptions(r.Options(calloutType), params)
			if err != nil {
				return &ConfigError{Line: lineNo, Msg: err.Error()}
			}
			r.SetCalloutOptions(calloutType, o)
			continue
		}
		r.mu.RLock()
		driver, ok := r.drivers[driverName]
		r.mu.RUnlock()
		if !ok {
			return &ConfigError{Line: lineNo, Msg: fmt.Sprintf("unknown driver %q (have %v)", driverName, r.Drivers())}
		}
		pdp, err := driver(params)
		if err != nil {
			return &ConfigError{Line: lineNo, Msg: fmt.Sprintf("driver %q: %v", driverName, err)}
		}
		r.Bind(calloutType, pdp)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("callout config: read: %w", err)
	}
	return nil
}

// LoadConfigString parses configuration from a string.
func (r *Registry) LoadConfigString(s string) error {
	return r.LoadConfig(strings.NewReader(s))
}

// Invoke dispatches the request to the PDPs configured for the callout
// type, combining their decisions. An unconfigured callout type yields an
// Error decision — the paper's "authorization system failure" class —
// because an enforcement point whose callout is missing must fail closed
// loudly, not silently permit.
func (r *Registry) Invoke(calloutType string, req *Request) Decision {
	return r.InvokeContext(context.Background(), calloutType, req)
}

// InvokeContext is Invoke with a caller-supplied context: the PEP's
// per-request context reaches every context-aware PDP in the chain, so
// an abandoned request (client gone, deadline passed) can stop paying
// for policy evaluation. The prebuilt chain pointer is read under the
// lock; evaluation runs entirely outside it, so configuration calls are
// never blocked by a slow PDP. A chain is an immutable snapshot:
// concurrent Bind/Unbind affect the next dispatch, not in-flight ones.
func (r *Registry) InvokeContext(ctx context.Context, calloutType string, req *Request) Decision {
	r.mu.RLock()
	chain := r.chains[calloutType]
	m := r.metrics
	r.mu.RUnlock()
	if chain == nil {
		d := ErrorDecision("callout:"+calloutType, "no authorization callout configured")
		if m != nil {
			m.DecisionsError.Inc()
		}
		return d
	}
	if m == nil {
		return AuthorizeWithContext(ctx, chain, req)
	}
	start := time.Now()
	d := AuthorizeWithContext(ctx, chain, req)
	m.DecisionSeconds.Observe(time.Since(start))
	switch d.Effect {
	case Permit:
		m.DecisionsPermit.Inc()
	case Deny:
		m.DecisionsDeny.Inc()
	case Error:
		m.DecisionsError.Inc()
	case NotApplicable:
		m.DecisionsNotApplicable.Inc()
	default:
		// Unknown effects count as authorization system failures.
		m.DecisionsError.Inc()
	}
	return d
}

// PDP returns the combined PDP bound to a callout type, for callers that
// want to hold a decision point rather than dispatch by name. The
// returned PDP is context-aware.
func (r *Registry) PDP(calloutType string) PDP {
	return &registryPDP{r: r, calloutType: calloutType}
}

type registryPDP struct {
	r           *Registry
	calloutType string
}

var _ ContextPDP = (*registryPDP)(nil)

func (p *registryPDP) Name() string { return "callout:" + p.calloutType }

func (p *registryPDP) Authorize(req *Request) Decision {
	return p.r.Invoke(p.calloutType, req)
}

func (p *registryPDP) AuthorizeContext(ctx context.Context, req *Request) Decision {
	return p.r.InvokeContext(ctx, p.calloutType, req)
}
