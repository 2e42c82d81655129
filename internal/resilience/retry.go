// Package resilience holds the two mechanisms the system uses to ride
// out a slow or intermittently unavailable dependency: Policy, bounded
// retries with jittered exponential backoff, and Breaker, a circuit
// breaker. The PDPs behind a callout (Akenti servers, CAS queries) are
// remote, slow and intermittently unavailable, yet a PEP must keep
// answering: the callout registry (internal/core) applies both, under
// a per-callout deadline, to every chain member whose callout options
// ask for them. gram.Client and cluster.Follower retry under the same
// Policy, so connection-level and PDP-level transients back off
// identically. The package is a leaf: it imports nothing from this
// module.
package resilience

import (
	"context"
	"math/rand"
	"time"
)

// Policy configures bounded retries with jittered exponential backoff.
// The zero value selects the documented defaults; Attempts <= 1 means
// "try once, never retry".
type Policy struct {
	// Attempts is the total number of tries, first one included
	// (0 selects 3).
	Attempts int
	// BaseDelay is the backoff before the first retry (0 selects 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (0 selects 1s).
	MaxDelay time.Duration
	// Rand supplies jitter randomness in [0, 1). Nil selects the shared
	// math/rand source; tests pass a seeded source for determinism.
	Rand func() float64
	// Sleep waits between attempts, returning early if ctx is done. Nil
	// selects a timer-based wait; tests substitute a virtual clock.
	Sleep func(ctx context.Context, d time.Duration) error
}

// The delay doubles between retries, and half of each delay is
// randomized: the slept delay is d*(1-backoffJitter) +
// rand*d*backoffJitter, so synchronized clients spread out instead of
// retrying in lockstep.
const (
	backoffMultiplier = 2
	backoffJitter     = 0.5
)

func (p Policy) withDefaults() Policy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	if p.Sleep == nil {
		p.Sleep = sleepContext
	}
	return p
}

// sleepContext waits d or until ctx is done, whichever comes first.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Delay returns the jittered backoff before retry number retry (0 is
// the delay after the first failed attempt).
func (p Policy) Delay(retry int) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 0; i < retry; i++ {
		d *= backoffMultiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	jittered := d*(1-backoffJitter) + p.Rand()*d*backoffJitter
	return time.Duration(jittered)
}

// Backoff waits out the jittered delay before retry number retry,
// returning early with ctx's error if ctx is done first.
func (p Policy) Backoff(ctx context.Context, retry int) error {
	p = p.withDefaults()
	return p.Sleep(ctx, p.Delay(retry))
}

// Do runs op until it succeeds, it fails terminally, the attempt budget
// is exhausted, or ctx is done. op returns the attempt's error and
// whether a failure is transient (worth retrying); a nil error always
// stops. The error returned is the LAST attempt's — callers keep their
// domain error, not a wrapper.
func (p Policy) Do(ctx context.Context, op func(attempt int) (err error, transient bool)) error {
	p = p.withDefaults()
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		var transient bool
		err, transient = op(attempt)
		if err == nil || !transient {
			return err
		}
		if attempt == p.Attempts-1 {
			break
		}
		if p.Backoff(ctx, attempt) != nil {
			// The caller's context ended mid-backoff; its own error
			// (from the last real attempt) is more useful than ctx's.
			return err
		}
	}
	return err
}
