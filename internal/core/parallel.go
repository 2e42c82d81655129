package core

import (
	"context"

	"gridauth/internal/obs"
)

// ContextPDP is a PDP that can observe cancellation. The parallel
// combiner cancels the evaluation context as soon as the combined
// decision is determined, so a context-aware PDP representing an
// expensive remote callout (Akenti, CAS) can abandon work whose result
// can no longer matter. Implementing it is optional: plain PDPs are
// simply run to completion and their late results discarded.
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
// PDP must only be evaluated when sequential combination would have
// evaluated it: speculative evaluation would fire the side effect for
// requests an earlier source already rejected, and a cache hit would
// skip it entirely. ParallelCombined therefore never fans a
// side-effecting child out eagerly (it evaluates it in combination
// order, only if reached), and enforcement points must keep such PDPs
// out of cached chains (see CachedPDP).
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

// ParallelCombined is a PDP that merges the decisions of several PDPs
// like Combined, but evaluates the children concurrently: one goroutine
// per child, with the results consumed strictly in configuration order
// by the same resolution logic Combined uses. Consuming in order makes
// the combined decision identical to sequential combination for
// deterministic children — including which child's deny or error is
// reported — while the wall-clock cost drops from the SUM of the
// children's latencies to (roughly) the MAX over the prefix that
// determines the outcome. Under RequireAllPermit with all children
// permitting, that is the latency of the slowest child.
//
// Early exit: the moment the resolver returns (e.g. first deny under
// RequireAllPermit, first permit under PermitOverrides), the evaluation
// context is cancelled so ContextPDP children still running can abort.
//
// Side-effecting children (EffectfulPDP) are excluded from the eager
// fan-out: they are evaluated synchronously, in combination order, only
// when the resolver actually reaches them — i.e. exactly when
// sequential evaluation would have run them. An allocation PDP that
// reserves budget on evaluation therefore never reserves for a request
// an earlier source already denied.
type ParallelCombined struct {
	mode   CombineMode
	pdps   []PDP
	frozen string // see Combined.freezeName
}

// NewParallelCombined builds a concurrent combining PDP. With no
// children it denies everything (default deny), like NewCombined.
func NewParallelCombined(mode CombineMode, pdps ...PDP) *ParallelCombined {
	return &ParallelCombined{mode: mode, pdps: append([]PDP(nil), pdps...)}
}

var _ ContextPDP = (*ParallelCombined)(nil)

// Name implements PDP.
func (c *ParallelCombined) Name() string {
	if c.frozen != "" {
		return c.frozen
	}
	return combinedName("parallel-"+c.mode.String(), c.pdps)
}

// freezeName is Combined.freezeName for the parallel combiner.
func (c *ParallelCombined) freezeName() { c.frozen = c.Name() }

// Authorize implements PDP.
func (c *ParallelCombined) Authorize(req *Request) Decision {
	return c.AuthorizeContext(context.Background(), req)
}

// AuthorizeContext implements ContextPDP: it fans the children out and
// resolves their decisions in configuration order.
func (c *ParallelCombined) AuthorizeContext(ctx context.Context, req *Request) Decision {
	n := len(c.pdps)
	if n == 0 {
		return DenyDecision(c.Name(), "no policy decision points configured (default deny)")
	}
	if n == 1 {
		// Nothing to parallelize; skip the goroutine machinery.
		return combineDecisions(c.mode, c.Name, 1, func(int) Decision {
			return AuthorizeWithContext(ctx, c.pdps[0], req)
		})
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.SetParallel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]Decision, n)
	done := make([]chan struct{}, n)
	for i := range c.pdps {
		if IsSideEffecting(c.pdps[i]) {
			// Left to the resolver below: a side-effecting child may only
			// run once every earlier child has been consumed without
			// determining the outcome, or its effect (e.g. an allocation
			// reservation) would fire for requests sequential evaluation
			// would never have shown it.
			continue
		}
		done[i] = make(chan struct{})
		go func(i int) {
			defer close(done[i])
			results[i] = AuthorizeWithContext(ctx, c.pdps[i], req)
		}(i)
	}
	return combineDecisions(c.mode, c.Name, n, func(i int) Decision {
		if done[i] == nil {
			return AuthorizeWithContext(ctx, c.pdps[i], req)
		}
		<-done[i]
		return results[i]
	})
}
