package resilience

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// instant is a Sleep that never actually waits (deterministic tests).
func instant(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestPolicyDoRetriesTransientOnly(t *testing.T) {
	boom := errors.New("boom")
	t.Run("transient retries up to budget", func(t *testing.T) {
		calls := 0
		err := Policy{Attempts: 3, Sleep: instant}.Do(context.Background(), func(int) (error, bool) {
			calls++
			return boom, true
		})
		if !errors.Is(err, boom) || calls != 3 {
			t.Fatalf("err=%v calls=%d, want boom after 3", err, calls)
		}
	})
	t.Run("terminal failure stops immediately", func(t *testing.T) {
		calls := 0
		err := Policy{Attempts: 3, Sleep: instant}.Do(context.Background(), func(int) (error, bool) {
			calls++
			return boom, false
		})
		if !errors.Is(err, boom) || calls != 1 {
			t.Fatalf("err=%v calls=%d, want boom after 1", err, calls)
		}
	})
	t.Run("success stops", func(t *testing.T) {
		calls := 0
		err := Policy{Attempts: 3, Sleep: instant}.Do(context.Background(), func(int) (error, bool) {
			calls++
			if calls < 2 {
				return boom, true
			}
			return nil, false
		})
		if err != nil || calls != 2 {
			t.Fatalf("err=%v calls=%d, want nil after 2", err, calls)
		}
	})
	t.Run("context death during backoff keeps the domain error", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		err := Policy{
			Attempts: 5,
			Sleep: func(ctx context.Context, d time.Duration) error {
				cancel()
				return ctx.Err()
			},
		}.Do(ctx, func(int) (error, bool) {
			calls++
			return boom, true
		})
		if !errors.Is(err, boom) || calls != 1 {
			t.Fatalf("err=%v calls=%d, want the attempt's own error after 1 call", err, calls)
		}
	})
}

func TestPolicyDelayGrowsAndCaps(t *testing.T) {
	p := Policy{
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  40 * time.Millisecond,
		Rand:      func() float64 { return 1 }, // pin rand to the top of the jitter band
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	// Jitter spreads below the deterministic ceiling.
	p.Rand = func() float64 { return 0 }
	if got := p.Delay(0); got != 5*time.Millisecond {
		t.Errorf("fully-jittered Delay(0) = %v, want 5ms (half the base)", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	var transitions []string
	b := NewBreaker(BreakerConfig{
		Threshold: 3,
		Cooldown:  time.Minute,
		Clock:     func() time.Time { return now },
		OnStateChange: func(from, to BreakerState, reason string) {
			transitions = append(transitions, from.String()+"->"+to.String())
		},
	})

	// Failures below the threshold keep the breaker closed; a success
	// resets the streak.
	b.Failure("f1")
	b.Failure("f2")
	b.Success()
	b.Failure("f1")
	b.Failure("f2")
	if b.State() != Closed {
		t.Fatalf("state after sub-threshold failures = %v", b.State())
	}
	b.Failure("f3")
	if b.State() != Open {
		t.Fatalf("state after threshold = %v, want open", b.State())
	}

	// Open sheds until the cooldown elapses.
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	if b.Shed() != 1 {
		t.Fatalf("shed = %d, want 1", b.Shed())
	}

	// Cooldown elapsed: half-open admits exactly the probe budget.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker exceeded its probe budget")
	}

	// A failed probe re-opens; the next cooldown+probe+success closes.
	b.Failure("probe died")
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}

	want := []string{"closed->open", "open->half-open", "half-open->open", "open->half-open", "half-open->closed"}
	if strings.Join(transitions, " ") != strings.Join(want, " ") {
		t.Errorf("transitions = %v, want %v", transitions, want)
	}
}

// Shed returns how many calls the breaker has rejected.
func (b *Breaker) Shed() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shed
}
