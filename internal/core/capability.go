package core

// EffectfulPDP is optionally implemented by PDPs whose evaluation
// mutates state — reserving allocation budget, leasing accounts. Such a
// PDP must be evaluated exactly once per request that reaches it:
// evaluating it again would fire the side effect twice. The registry's
// per-PDP protection therefore never retries or abandons a
// side-effecting PDP (see resilientPDP).
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
// other goroutines — and therefore cannot hang. The registry's per-PDP
// timeout skips its deadline machinery for such PDPs: a
// per-callout deadline exists to bound evaluations that might outlive
// it, and arming one around a microsecond-scale memory computation is
// pure overhead. Declaring it waives the timeout entirely, so only a
// PDP that provably cannot block should; every other PDP with a timeout
// runs under the watchdog, whether or not it reads its context.
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
