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
// the inner PDP runs, so layers below — the per-PDP protection sits
// between this wrapper and the raw PDP — can annotate retry counts and
// breaker state on the same goroutine. The span value is recorded on
// the trace only after evaluation finishes, so trace readers never see
// a span that is still being written.
type tracedPDP struct {
	inner       PDP
	name        string
	effectful   bool
	nonBlocking bool
}

var (
	_ PDP            = (*tracedPDP)(nil)
	_ EffectfulPDP   = (*tracedPDP)(nil)
	_ NonBlockingPDP = (*tracedPDP)(nil)
)

// traced wraps p for decision tracing. Capabilities are captured once:
// the wrapper must answer them without consulting the inner PDP on the
// hot path, and a caller probing the wrapper must see exactly what the
// bare PDP would have declared (a protection over the wrapper must
// still find a side-effecting allocation PDP behind it and never retry
// it — a correctness matter, not a performance one).
func traced(p PDP) PDP {
	return &tracedPDP{
		inner:       p,
		name:        p.Name(),
		effectful:   IsSideEffecting(p),
		nonBlocking: IsNonBlocking(p),
	}
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
func (t *tracedPDP) Authorize(ctx context.Context, req *Request) Decision {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		// Tracing not requested: stay off the span path entirely.
		return t.inner.Authorize(ctx, req)
	}
	sp := &obs.Span{PDP: t.name}
	ctx = obs.WithSpan(ctx, sp)
	start := time.Now()
	d := t.inner.Authorize(ctx, req)
	sp.Effect = d.Effect.String()
	sp.Source = d.Source
	sp.Elapsed = time.Since(start)
	tr.Record(*sp)
	return d
}
