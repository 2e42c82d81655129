package resilience

import (
	"context"
	"fmt"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/obs"
)

// Options selects which protections Wrap applies. The zero value
// applies none (Wrap returns the PDP unchanged).
type Options struct {
	// Timeout bounds one callout attempt: the PDP runs under a watchdog
	// goroutine, is handed a context carrying the deadline, and an
	// overrun is converted into an Error decision whether or not the PDP
	// reads its context (the abandoned evaluation's late result is
	// discarded). A non-blocking PDP is exempt, and a side-effecting one
	// runs to completion under the deadline context. 0 disables.
	Timeout time.Duration
	// Retry re-runs attempts whose decision is Error (the transient
	// "authorization system failure" class — Permit, Deny and
	// NotApplicable never retry). Retry.Attempts <= 1 disables.
	Retry Policy
	// Breaker, when non-nil, sheds calls after consecutive Error
	// decisions instead of stacking timeouts onto a dead backend.
	Breaker *BreakerConfig
	// Audit, when non-nil, records breaker state transitions as
	// audit records (PDP = wrapped PDP's name, Action =
	// "circuit-breaker"). Transitions are system events, not requests,
	// so these records carry no RequestID. On a pipeline log the append
	// is asynchronous and subject to the log's queue-full degraded mode
	// (docs/AUDIT.md): transitions are rare, so even block mode cannot
	// meaningfully stall the breaker.
	Audit *audit.Log
	// Metrics, when non-nil, counts retries, breaker transitions and
	// shed calls. Independent of metrics, a traced request's span
	// (obs.SpanFrom) is always annotated with retry count and breaker
	// state.
	Metrics *obs.Metrics
}

// Resilient wraps a PDP with the protections selected by Options. It
// forwards SideEffecting, and for a side-effecting inner PDP it never
// retries and never abandons an attempt (both could fire — or
// double-fire — the side effect for a request whose decision is then
// discarded); such a PDP gets the deadline context only.
type Resilient struct {
	inner       core.PDP
	name        string // precomputed: combiners call Name per decision
	effectful   bool
	nonBlocking bool // inner cannot hang; the deadline would bound nothing
	timeout     time.Duration
	retry       Policy // normalized; Attempts <= 1 means "never retry"
	breaker     *Breaker
	metrics     *obs.Metrics
}

var _ core.EffectfulPDP = (*Resilient)(nil)

// Wrap applies o's protections to p, innermost timeout first, then
// retries, then the breaker (a shed call fails fast without burning
// retry budget). With a zero Options it returns p unchanged.
func Wrap(p core.PDP, o Options) core.PDP {
	if o.Timeout <= 0 && o.Retry.Attempts <= 1 && o.Breaker == nil {
		return p
	}
	r := &Resilient{
		inner:       p,
		name:        "resilient(" + p.Name() + ")",
		timeout:     o.Timeout,
		effectful:   core.IsSideEffecting(p),
		nonBlocking: core.IsNonBlocking(p),
		metrics:     o.Metrics,
	}
	if o.Retry.Attempts > 1 {
		r.retry = o.Retry.withDefaults()
	}
	if o.Breaker != nil {
		cfg := *o.Breaker
		if m := o.Metrics; m != nil {
			prev := cfg.OnStateChange
			cfg.OnStateChange = func(from, to BreakerState, reason string) {
				switch to {
				case Open:
					m.BreakerOpened.Inc()
				case HalfOpen:
					m.BreakerHalfOpen.Inc()
				case Closed:
					m.BreakerClosed.Inc()
				}
				if prev != nil {
					prev(from, to, reason)
				}
			}
		}
		if log := o.Audit; log != nil {
			name, prev := p.Name(), cfg.OnStateChange
			cfg.OnStateChange = func(from, to BreakerState, reason string) {
				log.Append(audit.Record{
					Action: "circuit-breaker",
					PDP:    name,
					Effect: to.String(),
					Source: from.String(),
					Reason: reason,
				})
				if prev != nil {
					prev(from, to, reason)
				}
			}
		}
		r.breaker = NewBreaker(cfg)
	}
	return r
}

// Name implements core.PDP.
func (r *Resilient) Name() string { return r.name }

// SideEffecting implements core.EffectfulPDP by forwarding the inner
// PDP's declaration, so combiners and caches treat the wrapped PDP
// exactly like the bare one.
func (r *Resilient) SideEffecting() bool { return r.effectful }

// Breaker exposes the per-PDP circuit breaker (nil when not enabled).
func (r *Resilient) Breaker() *Breaker { return r.breaker }

// Authorize implements core.PDP: breaker check, then bounded attempts,
// each under the per-callout deadline.
func (r *Resilient) Authorize(ctx context.Context, req *core.Request) core.Decision {
	if r.breaker != nil && !r.breaker.Allow() {
		if r.metrics != nil {
			r.metrics.BreakerShed.Inc()
		}
		if sp := obs.SpanFrom(ctx); sp != nil {
			sp.Breaker = Open.String()
		}
		return core.ErrorDecision(r.Name(),
			fmt.Sprintf("circuit open: %s is shedding calls while %s recovers", r.Name(), r.inner.Name()))
	}
	d := r.attempt(ctx, req)
	// Inline retry loop rather than Policy.Do: the happy path (one
	// attempt, no Error) must not pay for a closure or an error value it
	// will never use. A side-effecting inner PDP never retries (the
	// effect of a discarded attempt would have fired anyway).
	if r.retry.Attempts > 1 && !r.effectful {
		tries := 0
		for try := 1; try < r.retry.Attempts && d.Effect == core.Error && ctx.Err() == nil; try++ {
			if r.retry.Sleep(ctx, r.retry.Delay(try-1)) != nil {
				break
			}
			d = r.attempt(ctx, req)
			tries++
		}
		if tries > 0 {
			if r.metrics != nil {
				r.metrics.AuthzRetries.Add(uint64(tries))
			}
			if sp := obs.SpanFrom(ctx); sp != nil {
				sp.Retries = tries
			}
		}
	}
	if r.breaker != nil {
		if d.Effect == core.Error {
			r.breaker.Failure(d.Reason)
		} else {
			r.breaker.Success()
		}
		// The span publishes only after this wrapper returns (same
		// goroutine, see core's tracing decorator), so the post-decision
		// state is what trace readers see.
		if sp := obs.SpanFrom(ctx); sp != nil {
			sp.Breaker = r.breaker.State().String()
		}
	}
	return d
}

// attempt runs one bounded evaluation of the inner PDP, in one of
// three ways:
//   - a non-blocking inner PDP (core.NonBlockingPDP) runs directly: its
//     evaluation cannot outlive any deadline, so arming one would be
//     pure overhead on every call;
//   - a side-effecting one runs to completion under the deadline
//     context: abandoning it could leak its effect (an allocation
//     reservation committed after the deadline with no job to carry it);
//   - any other runs under the watchdog, which hands it the deadline
//     context and converts an overrun into an Error decision whether or
//     not the PDP honours that context.
func (r *Resilient) attempt(ctx context.Context, req *core.Request) core.Decision {
	if r.timeout <= 0 || r.nonBlocking {
		return r.inner.Authorize(ctx, req)
	}
	actx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	if r.effectful {
		return r.inner.Authorize(actx, req)
	}
	// The late result of an abandoned evaluation is discarded; the
	// goroutine exits with the evaluation (it is only leaked for as long
	// as the PDP hangs).
	ch := make(chan core.Decision, 1)
	go func() { ch <- r.inner.Authorize(actx, req) }()
	var d core.Decision
	select {
	case d = <-ch:
	case <-actx.Done():
	}
	// Decide by the contexts, not by which select case won: a PDP that
	// honours actx answers the moment it fires, and that answer must
	// read exactly like the one for a PDP that ignores it.
	if err := ctx.Err(); err != nil {
		return core.ErrorDecision(r.Name(), "request abandoned: "+err.Error())
	}
	if actx.Err() != nil {
		return core.ErrorDecision(r.Name(),
			fmt.Sprintf("callout %s timed out after %v", r.inner.Name(), r.timeout))
	}
	return d
}

// FromCalloutOptions builds the wrapper a callout chain's options ask
// for (the pdp-timeout / retries / breaker configuration-file knobs and
// their ResourceConfig equivalents). Breaker transitions are audited to
// log when it is non-nil and counted into m when it is non-nil.
func FromCalloutOptions(p core.PDP, o core.CalloutOptions, log *audit.Log, m *obs.Metrics) core.PDP {
	opts := Options{Timeout: o.PDPTimeout, Audit: log, Metrics: m}
	if o.Retries > 0 {
		opts.Retry = Policy{Attempts: o.Retries + 1, BaseDelay: o.RetryBackoff}
	}
	if o.Breaker {
		opts.Breaker = &BreakerConfig{
			Threshold: o.BreakerThreshold,
			Cooldown:  o.BreakerCooldown,
		}
	}
	return Wrap(p, opts)
}

// Install registers this package as the registry's PDP wrapper: every
// callout chain rebuilt from then on applies the chain's resilience
// options to each of its PDPs. Reconfiguring a callout type rebuilds
// its chain and therefore resets its breakers (a deliberate fresh
// start: the operator just changed what the chain means).
func Install(reg *core.Registry, log *audit.Log, m *obs.Metrics) {
	reg.SetPDPWrapper(func(p core.PDP, o core.CalloutOptions) core.PDP {
		return FromCalloutOptions(p, o, log, m)
	})
}
