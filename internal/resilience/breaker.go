package resilience

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states: Closed passes traffic; Open sheds it; HalfOpen lets
// one probe through to test recovery.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig tunes a Breaker. Zero values select the documented
// defaults.
type BreakerConfig struct {
	// Threshold is the number of CONSECUTIVE failures that trips a
	// closed breaker open (0 selects 5).
	Threshold int
	// Cooldown is how long an open breaker sheds before moving to
	// half-open (0 selects 5s).
	Cooldown time.Duration
	// OnStateChange observes every transition (auditing hook). Called
	// outside the breaker's lock, in transition order.
	OnStateChange func(from, to BreakerState, reason string)

	// clock is the time source (nil selects time.Now); tests drive it.
	clock func() time.Time
}

// Breaker is a circuit breaker: it watches a dependency's consecutive
// failures, sheds calls while the dependency is considered down
// (failing fast instead of stacking timeouts), and probes cautiously
// for recovery. The classic closed → open → half-open automaton.
type Breaker struct {
	cfg BreakerConfig

	// calm is true exactly while state == Closed with a zero failure
	// streak — the steady state of a healthy backend. Allow and Success
	// read it lock-free so the happy path costs two atomic loads, not
	// two mutex round trips; a call that races a concurrent trip and
	// slips through as a straggler is handled by Failure's Open case.
	calm atomic.Bool

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // the half-open probe is admitted and unresolved
	shed     uint64    // calls rejected while open
}

// NewBreaker builds a breaker from cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.clock == nil {
		cfg.clock = time.Now
	}
	b := &Breaker{cfg: cfg}
	b.calm.Store(true)
	return b
}

// Allow reports whether a call may proceed. While open it returns false
// until the cooldown elapses, then flips to half-open and admits one
// trial call at a time: its failure re-opens, its success closes. Every
// admitted call MUST be resolved with Success or Failure.
func (b *Breaker) Allow() bool {
	if b.calm.Load() {
		return true
	}
	b.mu.Lock()
	var notify func()
	defer func() {
		b.mu.Unlock()
		if notify != nil {
			notify()
		}
	}()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.clock().Sub(b.openedAt) < b.cfg.Cooldown {
			b.shed++
			return false
		}
		notify = b.transitionLocked(HalfOpen, "cooldown elapsed, probing")
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			b.shed++
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// Success records a successful call: it resets the failure streak and
// closes a half-open breaker.
func (b *Breaker) Success() {
	if b.calm.Load() {
		return // already closed with no streak; nothing to reset
	}
	b.mu.Lock()
	var notify func()
	b.failures = 0
	if b.state == HalfOpen {
		b.probing = false
		notify = b.transitionLocked(Closed, "probe succeeded")
	}
	if b.state == Closed {
		b.calm.Store(true)
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Failure records a failed call with its reason: it trips a closed
// breaker at the threshold and re-opens a half-open one immediately.
func (b *Breaker) Failure(reason string) {
	b.mu.Lock()
	b.calm.Store(false)
	var notify func()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			notify = b.transitionLocked(Open,
				fmt.Sprintf("%d consecutive failures (last: %s)", b.failures, reason))
			b.openedAt = b.cfg.clock()
		}
	case HalfOpen:
		b.probing = false
		notify = b.transitionLocked(Open, "probe failed: "+reason)
		b.openedAt = b.cfg.clock()
	case Open:
		// A straggler from before the trip; nothing changes.
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// transitionLocked moves the automaton and returns the deferred
// notification (run outside the lock so an observer can call back in).
func (b *Breaker) transitionLocked(to BreakerState, reason string) func() {
	from := b.state
	b.state = to
	if b.state == Closed {
		b.failures = 0
		b.calm.Store(true)
	}
	if cb := b.cfg.OnStateChange; cb != nil && from != to {
		return func() { cb(from, to, reason) }
	}
	return nil
}

// State returns the current state (observability; the answer may be
// stale the moment it returns).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
