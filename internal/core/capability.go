package core

import "context"

// ContextPDP is a PDP that can observe cancellation. The PEP's
// per-request context reaches every chain member, so a context-aware
// PDP representing an expensive remote callout (Akenti, CAS) can
// abandon work for a request nobody is waiting on any more.
// Implementing it is optional: plain PDPs are simply run to completion.
type ContextPDP interface {
	PDP
	// AuthorizeContext decides the request, honouring ctx cancellation.
	// A PDP that aborts on cancellation should return an Error decision
	// (authorization system failure), never a Permit.
	AuthorizeContext(ctx context.Context, req *Request) Decision
}

// AuthorizeWithContext dispatches to AuthorizeContext when the PDP
// supports it and to Authorize otherwise.
func AuthorizeWithContext(ctx context.Context, p PDP, req *Request) Decision {
	if cp, ok := p.(ContextPDP); ok {
		return cp.AuthorizeContext(ctx, req)
	}
	return p.Authorize(req)
}

// EffectfulPDP is optionally implemented by PDPs whose evaluation
// mutates state — reserving allocation budget, leasing accounts. Such a
// PDP must be evaluated exactly once per request that reaches it:
// evaluating it again would fire the side effect twice, and a cache hit
// would skip it entirely. The resilience layer therefore never retries
// a side-effecting PDP, and enforcement points must keep such PDPs out
// of cached chains (see CachedPDP).
type EffectfulPDP interface {
	PDP
	// SideEffecting reports whether evaluating this PDP mutates state.
	SideEffecting() bool
}

// IsSideEffecting reports whether p declares evaluation side effects.
func IsSideEffecting(p PDP) bool {
	e, ok := p.(EffectfulPDP)
	return ok && e.SideEffecting()
}

// NonBlockingPDP is optionally implemented by PDPs whose evaluation is
// purely in-process — no network round trip, no I/O, no waiting on
// other goroutines — and therefore cannot hang. Timeout wrappers
// (internal/resilience) skip their deadline machinery for such PDPs: a
// per-callout deadline exists to bound evaluations that might outlive
// it, and arming one around a microsecond-scale memory computation is
// pure overhead. Declaring it waives the timeout entirely, so only a
// PDP that provably cannot block should.
type NonBlockingPDP interface {
	PDP
	// NonBlocking reports that evaluation cannot block.
	NonBlocking() bool
}

// IsNonBlocking reports whether p declares itself non-blocking.
func IsNonBlocking(p PDP) bool {
	nb, ok := p.(NonBlockingPDP)
	return ok && nb.NonBlocking()
}
