package core

import (
	"context"
	"time"

	"gridauth/internal/obs"
)

// tracedPDP decorates one callout-chain member with decision tracing:
// when the request context carries an obs.Trace, each evaluation is
// recorded as one span (name, effect, source, latency). The wrapper is
// transparent — it reports the inner PDP's name and forwards the
// side-effect and non-blocking capability declarations — so whoever
// probes the traced member sees exactly the bare one. Every chain member
// is wrapped unconditionally on rebuild; the cost without a trace on
// the context is a single context lookup.
//
// The span is published on the evaluation context (obs.WithSpan) before
// the inner PDP runs, so layers below — the resilience wrapper sits
// between this wrapper and the raw PDP — can annotate retry counts and
// breaker state on the same goroutine. The span value is recorded on
// the trace only after evaluation finishes, so trace readers never see
// a span that is still being written.
type tracedPDP struct {
	inner       PDP
	ctxInner    ContextPDP // non-nil when inner is context-aware
	name        string
	effectful   bool
	nonBlocking bool
}

var (
	_ ContextPDP     = (*tracedPDP)(nil)
	_ EffectfulPDP   = (*tracedPDP)(nil)
	_ NonBlockingPDP = (*tracedPDP)(nil)
)

// traced wraps p for decision tracing. Capabilities are captured once:
// the wrapper must answer them without consulting the inner PDP on the
// hot path, and a caller probing the wrapper must see exactly what the
// bare PDP would have declared (the cache check in gridauth.NewResource
// must still find a side-effecting allocation PDP behind the wrapper —
// a correctness matter, not a performance one).
func traced(p PDP) PDP {
	t := &tracedPDP{
		inner:       p,
		name:        p.Name(),
		effectful:   IsSideEffecting(p),
		nonBlocking: IsNonBlocking(p),
	}
	if cp, ok := p.(ContextPDP); ok {
		t.ctxInner = cp
	}
	return t
}

// Name implements PDP; the wrapper is invisible in decision sources and
// span labels.
func (t *tracedPDP) Name() string { return t.name }

// SideEffecting implements EffectfulPDP by forwarding the inner
// declaration.
func (t *tracedPDP) SideEffecting() bool { return t.effectful }

// NonBlocking implements NonBlockingPDP by forwarding the inner
// declaration.
func (t *tracedPDP) NonBlocking() bool { return t.nonBlocking }

// Authorize implements PDP.
func (t *tracedPDP) Authorize(req *Request) Decision {
	return t.AuthorizeContext(context.Background(), req)
}

// AuthorizeContext implements ContextPDP.
func (t *tracedPDP) AuthorizeContext(ctx context.Context, req *Request) Decision {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		// Tracing not requested: stay off the span path entirely.
		if t.ctxInner != nil {
			return t.ctxInner.AuthorizeContext(ctx, req)
		}
		return t.inner.Authorize(req)
	}
	sp := &obs.Span{PDP: t.name}
	ctx = obs.WithSpan(ctx, sp)
	start := time.Now()
	var d Decision
	if t.ctxInner != nil {
		d = t.ctxInner.AuthorizeContext(ctx, req)
	} else {
		d = t.inner.Authorize(req)
	}
	sp.Effect = d.Effect.String()
	sp.Source = d.Source
	sp.Elapsed = time.Since(start)
	tr.Record(*sp)
	return d
}
