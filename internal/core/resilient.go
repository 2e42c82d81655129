package core

import (
	"context"
	"fmt"
	"time"

	"gridauth/internal/obs"
	"gridauth/internal/resilience"
)

// BreakerSink receives the circuit-breaker transitions of a registry's
// chain members: the member's name, the state left and the state
// entered, and why. Transitions are system events, not requests. A
// gatekeeper points the sink at its audit log (audit.Log.BreakerTransition).
type BreakerSink func(pdp, from, to, reason string)

// resilientPDP applies a callout type's per-PDP protections to one
// chain member: a per-callout deadline, bounded retries of transient
// Error decisions, and a circuit breaker (CalloutOptions.PDPTimeout,
// Retries, Breaker). It never changes an authorization outcome:
// Permit, Deny and NotApplicable pass through untouched, and every
// degradation it introduces surfaces as the paper's third decision
// class — Error, "authorization system failure" — which enforcement
// points already fail closed on.
//
// It forwards SideEffecting, and for a side-effecting inner PDP it
// never retries and never abandons an attempt (both could fire — or
// double-fire — the side effect for a request whose decision is then
// discarded); such a PDP gets the deadline context only.
type resilientPDP struct {
	inner       PDP
	name        string // precomputed: combiners call Name per decision
	effectful   bool
	nonBlocking bool // inner cannot hang; the deadline would bound nothing
	timeout     time.Duration
	retry       resilience.Policy // Attempts <= 1 means "never retry"
	breaker     *resilience.Breaker
	metrics     *obs.Metrics
}

var _ EffectfulPDP = (*resilientPDP)(nil)

// protects reports whether the options ask for any per-PDP protection.
func (o CalloutOptions) protects() bool {
	return o.PDPTimeout > 0 || o.Retries > 0 || o.Breaker
}

// protect applies o's protections to p, innermost timeout first, then
// retries, then the breaker (a shed call fails fast without burning
// retry budget). Breaker transitions are counted into m and handed to
// sink when they are non-nil. Callers check o.protects() first.
func protect(p PDP, o CalloutOptions, m *obs.Metrics, sink BreakerSink) *resilientPDP {
	r := &resilientPDP{
		inner:       p,
		name:        "resilient(" + p.Name() + ")",
		timeout:     o.PDPTimeout,
		effectful:   IsSideEffecting(p),
		nonBlocking: IsNonBlocking(p),
		metrics:     m,
	}
	if o.Retries > 0 {
		r.retry = resilience.Policy{Attempts: o.Retries + 1, BaseDelay: o.RetryBackoff}
	}
	if o.Breaker {
		name := p.Name()
		r.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: o.BreakerThreshold,
			Cooldown:  o.BreakerCooldown,
			OnStateChange: func(from, to resilience.BreakerState, reason string) {
				if sink != nil {
					sink(name, from.String(), to.String(), reason)
				}
				if m == nil {
					return
				}
				switch to {
				case resilience.Open:
					m.BreakerOpened.Inc()
				case resilience.HalfOpen:
					m.BreakerHalfOpen.Inc()
				case resilience.Closed:
					m.BreakerClosed.Inc()
				}
			},
		})
	}
	return r
}

// Name implements PDP.
func (r *resilientPDP) Name() string { return r.name }

// SideEffecting implements EffectfulPDP by forwarding the inner PDP's
// declaration, so combiners and callers probing capabilities treat the
// protected PDP exactly like the bare one.
func (r *resilientPDP) SideEffecting() bool { return r.effectful }

// Authorize implements PDP: breaker check, then bounded attempts, each
// under the per-callout deadline.
func (r *resilientPDP) Authorize(ctx context.Context, req *Request) Decision {
	if r.breaker != nil && !r.breaker.Allow() {
		if r.metrics != nil {
			r.metrics.BreakerShed.Inc()
		}
		if sp := obs.SpanFrom(ctx); sp != nil {
			sp.Breaker = resilience.Open.String()
		}
		return ErrorDecision(r.Name(),
			fmt.Sprintf("circuit open: %s is shedding calls while %s recovers", r.Name(), r.inner.Name()))
	}
	d := r.attempt(ctx, req)
	// Inline retry loop rather than Policy.Do: the happy path (one
	// attempt, no Error) must not pay for a closure or an error value it
	// will never use. A side-effecting inner PDP never retries (the
	// effect of a discarded attempt would have fired anyway).
	if r.retry.Attempts > 1 && !r.effectful {
		tries := 0
		for try := 1; try < r.retry.Attempts && d.Effect == Error && ctx.Err() == nil; try++ {
			if r.retry.Backoff(ctx, try-1) != nil {
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
		if d.Effect == Error {
			r.breaker.Failure(d.Reason)
		} else {
			r.breaker.Success()
		}
		// The span publishes only after this PDP returns (same
		// goroutine, see the tracing decorator), so the post-decision
		// state is what trace readers see.
		if sp := obs.SpanFrom(ctx); sp != nil {
			sp.Breaker = r.breaker.State().String()
		}
	}
	return d
}

// attempt runs one bounded evaluation of the inner PDP, in one of
// three ways:
//   - a non-blocking inner PDP (NonBlockingPDP) runs directly: its
//     evaluation cannot outlive any deadline, so arming one would be
//     pure overhead on every call;
//   - a side-effecting one runs to completion under the deadline
//     context: abandoning it could leak its effect (an allocation
//     reservation committed after the deadline with no job to carry it);
//   - any other runs under the watchdog, which hands it the deadline
//     context and converts an overrun into an Error decision whether or
//     not the PDP honours that context.
func (r *resilientPDP) attempt(ctx context.Context, req *Request) Decision {
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
	ch := make(chan Decision, 1)
	go func() { ch <- r.inner.Authorize(actx, req) }()
	var d Decision
	select {
	case d = <-ch:
	case <-actx.Done():
	}
	// Decide by the contexts, not by which select case won: a PDP that
	// honours actx answers the moment it fires, and that answer must
	// read exactly like the one for a PDP that ignores it.
	if err := ctx.Err(); err != nil {
		return ErrorDecision(r.Name(), "request abandoned: "+err.Error())
	}
	if actx.Err() != nil {
		return ErrorDecision(r.Name(),
			fmt.Sprintf("callout %s timed out after %v", r.inner.Name(), r.timeout))
	}
	return d
}
