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
// The zero value is the paper's prototype behaviour: no per-PDP
// protection. Every registry enforces every field: the per-PDP
// protections (PDPTimeout, Retries, Breaker) wrap each chain member
// when the chain is built (see resilientPDP).
type CalloutOptions struct {
	// PDPTimeout bounds each chain member's evaluation per callout; an
	// overrun becomes an Error decision (authorization system failure)
	// whether or not the PDP honours its context. A non-blocking PDP is
	// exempt, and a side-effecting one runs to completion under the
	// deadline context. 0 disables.
	PDPTimeout time.Duration
	// Retries is how many extra attempts a transient Error decision
	// gets, with jittered exponential backoff (0 disables). Permit,
	// Deny and NotApplicable never retry, and side-effecting PDPs are
	// never retried regardless.
	Retries int
	// RetryBackoff is the base backoff before the first retry (0
	// selects resilience.Policy's default, 25ms).
	RetryBackoff time.Duration
	// Breaker enables a per-PDP circuit breaker: consecutive Error
	// decisions trip it open and calls are shed (failing fast with an
	// Error decision) until a cooldown probe succeeds. Transitions are
	// counted in the registry's metrics and handed to its BreakerSink.
	Breaker bool
	// BreakerThreshold is the consecutive-failure trip point (0 selects
	// 5).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay (0 selects 5s).
	BreakerCooldown time.Duration
}

// Registry maps abstract callout types to configured PDP chains, and
// driver names to factories. It is the Go analogue of the prototype's
// "runtime configurable callouts": configuration happens "either through
// a configuration file or an API call".
//
// The registry PREBUILDS each callout type's evaluation chain (the
// combiner over its traced, protected members) whenever its
// configuration changes. Dispatch therefore only reads one pointer
// under the read lock and evaluates entirely outside it: a slow PDP can
// never block Bind, RegisterDriver or any other configuration call, and
// dispatch allocates nothing per request. No decision is memoized:
// every request is decided by the live chain, so a policy, membership
// or credential change is enforced on the very next request.
type Registry struct {
	mu       sync.RWMutex
	drivers  map[string]Driver
	callouts map[string][]PDP
	opts     map[string]CalloutOptions
	chains   map[string]PDP
	metrics  *obs.Metrics
	traces   *obs.TraceStore
	breakers BreakerSink
}

// NewRegistry returns a registry combining each callout type's PDPs with
// RequireAllPermit, the paper's combination rule.
func NewRegistry() *Registry {
	return &Registry{
		drivers:  make(map[string]Driver),
		callouts: make(map[string][]PDP),
		opts:     make(map[string]CalloutOptions),
		chains:   make(map[string]PDP),
	}
}

// SetMetrics installs (or, with nil, removes) the metric set dispatch
// reports into: decision counts by effect and end-to-end callout
// latency at InvokeContext, retries, breaker transitions and sheds at
// each protected member. All chains are rebuilt so their members pick
// the metrics up.
func (r *Registry) SetMetrics(m *obs.Metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = m
	for t := range r.callouts {
		r.rebuildLocked(t)
	}
}

// SetBreakerSink installs (or, with nil, removes) the sink every
// chain member's circuit breaker reports its transitions to, and
// rebuilds all chains. A registry with no sink still enforces every
// protection and counts it in its metrics.
func (r *Registry) SetBreakerSink(s BreakerSink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breakers = s
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

// SetTraces installs (or, with nil, removes) the store every service
// enforcing through this registry publishes its per-request decision
// traces to, so each audit record's request ID resolves in /trace.
func (r *Registry) SetTraces(s *obs.TraceStore) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces = s
}

// Traces returns the installed trace store, or nil — also for a nil
// registry, which has nothing to trace.
func (r *Registry) Traces() *obs.TraceStore {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.traces
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
// and rebuilds its chain.
func (r *Registry) SetCalloutOptions(calloutType string, o CalloutOptions) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opts[calloutType] = o
	r.rebuildLocked(calloutType)
}

// Options returns the evaluation options of a callout type.
func (r *Registry) Options(calloutType string) CalloutOptions {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.opts[calloutType]
}

// rebuildLocked recomputes the prebuilt evaluation chain of a callout
// type. Callers hold r.mu. Rebuilding gives every protected member a
// fresh breaker: a deliberate fresh start, because the operator just
// changed what the chain means.
func (r *Registry) rebuildLocked(calloutType string) {
	pdps := r.callouts[calloutType]
	if len(pdps) == 0 {
		delete(r.chains, calloutType)
		return
	}
	o := r.opts[calloutType]
	// Every member gets the tracing decorator, outside its protection,
	// so a span covers the whole evaluation including retries and
	// breaker sheds. Without a trace on the request context the
	// decorator is a single context lookup.
	members := make([]PDP, len(pdps))
	for i, p := range pdps {
		if o.protects() {
			p = protect(p, o, r.metrics, r.breakers)
		}
		members[i] = traced(p)
	}
	combined := NewCombined(RequireAllPermit, members...)
	combined.freezeName()
	r.chains[calloutType] = combined
}

// parseCalloutOptions applies key=value pairs from an "options"
// configuration line on top of existing options.
func parseCalloutOptions(base CalloutOptions, params map[string]string) (CalloutOptions, error) {
	o := base
	for k, v := range params {
		switch k {
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
		case "mode", "cache", "cache-ttl", "cache-shards":
			// Named, not lumped with typos: a file written for an older
			// release must fail at startup, not run with the line ignored.
			return o, fmt.Errorf("option %q was removed: chains are always walked in order and every request is decided by the live chain, with no decision cache; delete the key", k)
		default:
			return o, fmt.Errorf("unknown option %q (want pdp-timeout, retries, retry-backoff, breaker, breaker-threshold, breaker-cooldown)", k)
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
//	globus_gram_jobmanager_authz options pdp-timeout=2s retries=1
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

// InvokeContext dispatches the request to the PDPs configured for the
// callout type, combining their decisions. An unconfigured callout type
// yields an Error decision — the paper's "authorization system failure"
// class — because an enforcement point whose callout is missing must
// fail closed loudly, not silently permit.
//
// The PEP's per-request context reaches every PDP in the chain, so an
// abandoned request (client gone, deadline passed) can stop paying for
// policy evaluation. The prebuilt chain pointer is read under the
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
		return chain.Authorize(ctx, req)
	}
	start := time.Now()
	d := chain.Authorize(ctx, req)
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
