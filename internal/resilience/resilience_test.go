package resilience

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
)

// countingPDP answers with a scripted sequence of effects, then repeats
// the last one; it records every call.
type countingPDP struct {
	id     string
	script []core.Effect
	mu     sync.Mutex
	calls  int
}

func (p *countingPDP) Name() string { return p.id }

func (p *countingPDP) Authorize(_ context.Context, req *core.Request) core.Decision {
	p.mu.Lock()
	i := p.calls
	p.calls++
	p.mu.Unlock()
	if i >= len(p.script) {
		i = len(p.script) - 1
	}
	switch p.script[i] {
	case core.Permit:
		return core.PermitDecision(p.id, "ok")
	case core.Deny:
		return core.DenyDecision(p.id, "no")
	case core.NotApplicable:
		return core.AbstainDecision(p.id, "abstain")
	default:
		return core.ErrorDecision(p.id, "backend down")
	}
}

func (p *countingPDP) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// hangingPDP blocks until released, ignoring its context: only the
// watchdog can bound it.
type hangingPDP struct {
	release chan struct{}
	started atomic.Int64
}

func (p *hangingPDP) Name() string { return "hanger" }

func (p *hangingPDP) Authorize(_ context.Context, req *core.Request) core.Decision {
	p.started.Add(1)
	<-p.release
	return core.PermitDecision("hanger", "finally")
}

// effectfulPDP is side-effecting: each Authorize "fires" once, taking
// delay to do so, and notes whether its context carried a deadline.
type effectfulPDP struct {
	fired       atomic.Int64
	effect      core.Effect
	delay       time.Duration
	sawDeadline atomic.Bool
}

func (p *effectfulPDP) Name() string        { return "effectful" }
func (p *effectfulPDP) SideEffecting() bool { return true }
func (p *effectfulPDP) Authorize(ctx context.Context, req *core.Request) core.Decision {
	p.fired.Add(1)
	if _, ok := ctx.Deadline(); ok {
		p.sawDeadline.Store(true)
	}
	time.Sleep(p.delay)
	if p.effect == core.Permit {
		return core.PermitDecision("effectful", "reserved")
	}
	return core.ErrorDecision("effectful", "backend down")
}

// instant is a Sleep that never actually waits (deterministic tests).
func instant(ctx context.Context, d time.Duration) error { return ctx.Err() }

func req() *core.Request { return &core.Request{Subject: "/O=Grid/CN=Bo", Action: "start"} }

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
		BaseDelay:  10 * time.Millisecond,
		MaxDelay:   40 * time.Millisecond,
		Multiplier: 2,
		Jitter:     0,                           // Jitter==0 selects the 0.5 default...
		Rand:       func() float64 { return 1 }, // ...so pin rand to the top of the band
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

func TestWrapZeroOptionsIsPassthrough(t *testing.T) {
	p := &countingPDP{id: "p", script: []core.Effect{core.Permit}}
	if got := Wrap(p, Options{}); got != core.PDP(p) {
		t.Fatalf("Wrap with zero options wrapped anyway: %T", got)
	}
}

func TestResilientForwardsNameAndSideEffect(t *testing.T) {
	eff := &effectfulPDP{effect: core.Permit}
	w := Wrap(eff, Options{Timeout: time.Second})
	if w.Name() != "resilient(effectful)" {
		t.Errorf("Name = %q", w.Name())
	}
	if !core.IsSideEffecting(w) {
		t.Error("side-effect declaration not forwarded")
	}
	plain := Wrap(&countingPDP{id: "p", script: []core.Effect{core.Permit}}, Options{Timeout: time.Second})
	if core.IsSideEffecting(plain) {
		t.Error("plain PDP reported side-effecting")
	}
}

// TestTimeoutAnswersAlikeWhateverThePDPDoesWithCtx pins how a timeout
// bounds a PDP that is handed the deadline: one that honours it answers
// with the wrapper's timeout Error, and a side-effecting one runs once,
// to completion, with the deadline in its context.
func TestTimeoutAnswersAlikeWhateverThePDPDoesWithCtx(t *testing.T) {
	const timeout = 10 * time.Millisecond
	honours := core.PDPFunc{ID: "remote", Fn: func(ctx context.Context, _ *core.Request) core.Decision {
		if _, ok := ctx.Deadline(); !ok {
			return core.ErrorDecision("remote", "handed no deadline to honour")
		}
		<-ctx.Done()
		return core.ErrorDecision("remote", "gave up: "+ctx.Err().Error())
	}}
	effectful := &effectfulPDP{effect: core.Permit, delay: 3 * timeout}

	rows := []struct {
		name string
		pdp  core.PDP
		want core.Decision
	}{
		{"hang honouring ctx", honours,
			core.ErrorDecision("resilient(remote)", "callout remote timed out after 10ms")},
		{"side-effecting", effectful,
			core.PermitDecision("effectful", "reserved")},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if d := Wrap(row.pdp, Options{Timeout: timeout}).Authorize(context.Background(), req()); d != row.want {
				t.Fatalf("decision = %+v, want %+v", d, row.want)
			}
		})
	}
	if n := effectful.fired.Load(); n != 1 {
		t.Errorf("side-effecting PDP fired %d times, want 1", n)
	}
	if !effectful.sawDeadline.Load() {
		t.Error("side-effecting PDP was not handed the deadline context")
	}
}

// TestTimeoutWatchdogConvertsOverrunToError: a PDP that ignores its
// context is bounded by the watchdog alone.
func TestTimeoutWatchdogConvertsOverrunToError(t *testing.T) {
	h := &hangingPDP{release: make(chan struct{})}
	defer close(h.release)
	w := Wrap(h, Options{Timeout: 10 * time.Millisecond})
	want := core.ErrorDecision("resilient(hanger)", "callout hanger timed out after 10ms")
	if d := w.Authorize(context.Background(), req()); d != want {
		t.Fatalf("decision = %+v, want %+v", d, want)
	}
}

// TestTimeoutAbandonedRequestReportsAbandonment: a parent cancelled
// mid-call reads as abandonment, not as a timeout.
func TestTimeoutAbandonedRequestReportsAbandonment(t *testing.T) {
	h := &hangingPDP{release: make(chan struct{})}
	defer close(h.release)
	w := Wrap(h, Options{Timeout: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for h.started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	want := core.ErrorDecision("resilient(hanger)", "request abandoned: context canceled")
	if d := w.Authorize(ctx, req()); d != want {
		t.Fatalf("decision = %+v, want %+v", d, want)
	}
}

// deadlinePDP notes whether it received a context with a deadline.
type deadlinePDP struct{ sawDeadline atomic.Bool }

func (p *deadlinePDP) Name() string { return "deadline" }
func (p *deadlinePDP) Authorize(ctx context.Context, req *core.Request) core.Decision {
	if _, ok := ctx.Deadline(); ok {
		p.sawDeadline.Store(true)
	}
	return core.PermitDecision("deadline", "ok")
}

func TestTimeoutPassesDeadlineToContextPDP(t *testing.T) {
	p := &deadlinePDP{}
	w := Wrap(p, Options{Timeout: time.Second})
	if d := w.Authorize(context.Background(), req()); d.Effect != core.Permit {
		t.Fatalf("decision = %+v", d)
	}
	if !p.sawDeadline.Load() {
		t.Error("PDP did not receive the deadline context")
	}
}

// nonBlockingPDP declares it cannot hang, so a timeout wrapper must
// not spend a deadline context on it.
type nonBlockingPDP struct{ deadlinePDP }

func (p *nonBlockingPDP) NonBlocking() bool { return true }

func TestTimeoutSkipsNonBlockingPDP(t *testing.T) {
	p := &nonBlockingPDP{}
	w := Wrap(p, Options{Timeout: time.Second})
	if d := w.Authorize(context.Background(), req()); d.Effect != core.Permit {
		t.Fatalf("decision = %+v", d)
	}
	if p.sawDeadline.Load() {
		t.Error("non-blocking PDP was handed a deadline context; the timeout should be waived")
	}
}

func TestRetryRecoversTransientError(t *testing.T) {
	p := &countingPDP{id: "p", script: []core.Effect{core.Error, core.Error, core.Permit}}
	w := Wrap(p, Options{Retry: Policy{Attempts: 3, Sleep: instant}})
	d := w.Authorize(context.Background(), req())
	if d.Effect != core.Permit || p.callCount() != 3 {
		t.Fatalf("decision = %+v after %d calls, want permit after 3", d, p.callCount())
	}
}

func TestRetryNeverRetriesDenyOrAbstain(t *testing.T) {
	for _, eff := range []core.Effect{core.Permit, core.Deny, core.NotApplicable} {
		p := &countingPDP{id: "p", script: []core.Effect{eff}}
		w := Wrap(p, Options{Retry: Policy{Attempts: 5, Sleep: instant}})
		d := w.Authorize(context.Background(), req())
		if d.Effect != eff || p.callCount() != 1 {
			t.Errorf("%v: decision = %+v after %d calls, want 1 call", eff, d, p.callCount())
		}
	}
}

func TestRetryExcludesSideEffectingPDP(t *testing.T) {
	eff := &effectfulPDP{effect: core.Error}
	w := Wrap(eff, Options{Retry: Policy{Attempts: 5, Sleep: instant}})
	d := w.Authorize(context.Background(), req())
	if d.Effect != core.Error {
		t.Fatalf("decision = %+v", d)
	}
	if eff.fired.Load() != 1 {
		t.Fatalf("side-effecting PDP fired %d times under retry, want exactly 1", eff.fired.Load())
	}
}

func TestBreakerShedsAndRecoversThroughWrapper(t *testing.T) {
	now := time.Unix(0, 0)
	log, err := audit.NewPipeline(audit.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	p := &countingPDP{id: "backend", script: []core.Effect{core.Error, core.Error, core.Permit}}
	w := Wrap(p, Options{
		Breaker: &BreakerConfig{Threshold: 2, Cooldown: time.Minute, Clock: func() time.Time { return now }},
		Audit:   log,
	}).(*Resilient)

	// Two errors trip the breaker.
	for i := 0; i < 2; i++ {
		if d := w.Authorize(context.Background(), req()); d.Effect != core.Error {
			t.Fatalf("call %d = %+v", i, d)
		}
	}
	if w.Breaker().State() != Open {
		t.Fatalf("breaker = %v, want open", w.Breaker().State())
	}
	// While open the backend is not consulted.
	before := p.callCount()
	d := w.Authorize(context.Background(), req())
	if d.Effect != core.Error || !strings.Contains(d.Reason, "circuit open") {
		t.Fatalf("shed decision = %+v", d)
	}
	if p.callCount() != before {
		t.Fatal("open breaker still consulted the backend")
	}
	// Cooldown elapses; the probe hits the healed backend and closes.
	now = now.Add(2 * time.Minute)
	if d := w.Authorize(context.Background(), req()); d.Effect != core.Permit {
		t.Fatalf("probe decision = %+v, want permit", d)
	}
	if w.Breaker().State() != Closed {
		t.Fatalf("breaker = %v after successful probe, want closed", w.Breaker().State())
	}

	// Transitions were audited in order with the PDP named.
	recs := log.Filter(func(r audit.Record) bool { return r.Action == "circuit-breaker" })
	if len(recs) != 3 {
		t.Fatalf("audited transitions = %d, want 3: %+v", len(recs), recs)
	}
	wantEffects := []string{"open", "half-open", "closed"}
	for i, r := range recs {
		if r.Effect != wantEffects[i] || r.PDP != "backend" {
			t.Errorf("record %d = {PDP:%s Effect:%s}, want {backend %s}", i, r.PDP, r.Effect, wantEffects[i])
		}
	}
}

func TestFromCalloutOptionsMapsKnobs(t *testing.T) {
	p := &countingPDP{id: "p", script: []core.Effect{core.Permit}}
	if got := FromCalloutOptions(p, core.CalloutOptions{}, nil, nil); got != core.PDP(p) {
		t.Fatal("zero callout options should not wrap")
	}
	w := FromCalloutOptions(p, core.CalloutOptions{PDPTimeout: time.Second, Retries: 2, Breaker: true}, nil, nil)
	r, ok := w.(*Resilient)
	if !ok {
		t.Fatalf("wrapped type %T", w)
	}
	if r.retry.Attempts != 3 {
		t.Errorf("Attempts = %d, want retries+1 = 3", r.retry.Attempts)
	}
	if r.Breaker() == nil {
		t.Error("breaker not built")
	}
}

func TestInstallWrapsRegistryChains(t *testing.T) {
	reg := core.NewRegistry()
	backend := &countingPDP{id: "backend", script: []core.Effect{core.Error, core.Permit}}
	reg.Bind(core.CalloutJobManager, backend)
	reg.SetCalloutOptions(core.CalloutJobManager, core.CalloutOptions{Retries: 2, RetryBackoff: time.Nanosecond})
	Install(reg, nil, nil)
	d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req())
	if d.Effect != core.Permit {
		t.Fatalf("decision = %+v, want retried permit", d)
	}
	if backend.callCount() != 2 {
		t.Fatalf("backend consulted %d times, want 2", backend.callCount())
	}
}
