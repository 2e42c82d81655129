package resilience_test

// The per-PDP protection the callout registry builds from a callout
// type's options — deadline, retries and circuit breaker over Policy
// and Breaker — driven through core.Registry, the only way to get it.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/obs"
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

func req() *core.Request { return &core.Request{Subject: "/O=Grid/CN=Bo", Action: "start"} }

// protected binds p alone to a fresh registry's job-manager callout and
// applies options o, as an "options" line would.
func protected(t *testing.T, p core.PDP, o core.CalloutOptions) *core.Registry {
	t.Helper()
	reg := core.NewRegistry()
	if err := reg.Bind(core.CalloutJobManager, p); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCalloutOptions(core.CalloutJobManager, o); err != nil {
		t.Fatal(err)
	}
	return reg
}

func decide(ctx context.Context, reg *core.Registry) core.Decision {
	return reg.InvokeContext(ctx, core.CalloutJobManager, req())
}

// retry selects n retries with a backoff too short to wait on.
func retry(n int) core.CalloutOptions {
	return core.CalloutOptions{Retries: n, RetryBackoff: time.Nanosecond}
}

func TestWrapZeroOptionsIsPassthrough(t *testing.T) {
	p := &countingPDP{id: "p", script: []core.Effect{core.Permit}}
	want := core.PermitDecision("require-all-permit(p)", "p: ok")
	if d := decide(context.Background(), protected(t, p, core.CalloutOptions{})); d != want {
		t.Fatalf("zero options protected the member anyway: decision = %+v, want %+v", d, want)
	}
}

// TestResilientForwardsNameAndSideEffect: a protected member is named
// resilient(<inner>) in decisions and spans, and a side-effecting one
// keeps its declaration: under a deadline shorter than its evaluation
// and a retry budget it fires once, to completion, and answers itself.
func TestResilientForwardsNameAndSideEffect(t *testing.T) {
	plain := &countingPDP{id: "p", script: []core.Effect{core.Permit}}
	tr := obs.NewTrace("rid", "/O=Grid/CN=Bo")
	d := decide(obs.WithTrace(context.Background(), tr), protected(t, plain, core.CalloutOptions{PDPTimeout: time.Second}))
	if d.Source != "require-all-permit(resilient(p))" {
		t.Errorf("Source = %q", d.Source)
	}
	if spans := tr.Spans(); len(spans) != 1 || spans[0].PDP != "resilient(p)" {
		t.Errorf("spans = %+v, want one span named resilient(p)", spans)
	}

	eff := &effectfulPDP{effect: core.Error, delay: 30 * time.Millisecond}
	o := retry(3)
	o.PDPTimeout = 10 * time.Millisecond
	want := core.ErrorDecision("effectful", "backend down")
	if d := decide(context.Background(), protected(t, eff, o)); d != want {
		t.Fatalf("decision = %+v, want the side-effecting PDP's own %+v", d, want)
	}
	if n := eff.fired.Load(); n != 1 {
		t.Errorf("side-effecting PDP fired %d times, want 1", n)
	}
}

// TestTimeoutAnswersAlikeWhateverThePDPDoesWithCtx pins how a timeout
// bounds a PDP that is handed the deadline: one that honours it answers
// with the protection's timeout Error, and a side-effecting one runs
// once, to completion, with the deadline in its context.
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
			core.PermitDecision("require-all-permit(resilient(effectful))", "effectful: reserved")},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reg := protected(t, row.pdp, core.CalloutOptions{PDPTimeout: timeout})
			if d := decide(context.Background(), reg); d != row.want {
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
	reg := protected(t, h, core.CalloutOptions{PDPTimeout: 10 * time.Millisecond})
	want := core.ErrorDecision("resilient(hanger)", "callout hanger timed out after 10ms")
	if d := decide(context.Background(), reg); d != want {
		t.Fatalf("decision = %+v, want %+v", d, want)
	}
}

// TestTimeoutAbandonedRequestReportsAbandonment: a parent cancelled
// mid-call reads as abandonment, not as a timeout.
func TestTimeoutAbandonedRequestReportsAbandonment(t *testing.T) {
	h := &hangingPDP{release: make(chan struct{})}
	defer close(h.release)
	reg := protected(t, h, core.CalloutOptions{PDPTimeout: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for h.started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	want := core.ErrorDecision("resilient(hanger)", "request abandoned: context canceled")
	if d := decide(ctx, reg); d != want {
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
	reg := protected(t, p, core.CalloutOptions{PDPTimeout: time.Second})
	if d := decide(context.Background(), reg); d.Effect != core.Permit {
		t.Fatalf("decision = %+v", d)
	}
	if !p.sawDeadline.Load() {
		t.Error("PDP did not receive the deadline context")
	}
}

// nonBlockingPDP declares it cannot hang, so the timeout must not
// spend a deadline context on it.
type nonBlockingPDP struct{ deadlinePDP }

func (p *nonBlockingPDP) NonBlocking() bool { return true }

func TestTimeoutSkipsNonBlockingPDP(t *testing.T) {
	p := &nonBlockingPDP{}
	reg := protected(t, p, core.CalloutOptions{PDPTimeout: time.Second})
	if d := decide(context.Background(), reg); d.Effect != core.Permit {
		t.Fatalf("decision = %+v", d)
	}
	if p.sawDeadline.Load() {
		t.Error("non-blocking PDP was handed a deadline context; the timeout should be waived")
	}
}

func TestRetryRecoversTransientError(t *testing.T) {
	p := &countingPDP{id: "p", script: []core.Effect{core.Error, core.Error, core.Permit}}
	d := decide(context.Background(), protected(t, p, retry(2)))
	if d.Effect != core.Permit || p.callCount() != 3 {
		t.Fatalf("decision = %+v after %d calls, want permit after 3", d, p.callCount())
	}
}

func TestRetryNeverRetriesDenyOrAbstain(t *testing.T) {
	// A lone abstention grants nothing: the chain default-denies it.
	for eff, want := range map[core.Effect]core.Effect{
		core.Permit: core.Permit, core.Deny: core.Deny, core.NotApplicable: core.Deny,
	} {
		p := &countingPDP{id: "p", script: []core.Effect{eff}}
		d := decide(context.Background(), protected(t, p, retry(4)))
		if d.Effect != want || p.callCount() != 1 {
			t.Errorf("%v: decision = %+v after %d calls, want %v after 1 call", eff, d, p.callCount(), want)
		}
	}
}

func TestRetryExcludesSideEffectingPDP(t *testing.T) {
	eff := &effectfulPDP{effect: core.Error}
	d := decide(context.Background(), protected(t, eff, retry(4)))
	if d.Effect != core.Error {
		t.Fatalf("decision = %+v", d)
	}
	if eff.fired.Load() != 1 {
		t.Fatalf("side-effecting PDP fired %d times under retry, want exactly 1", eff.fired.Load())
	}
}

func TestBreakerShedsAndRecoversThroughWrapper(t *testing.T) {
	const cooldown = 100 * time.Millisecond
	log, err := audit.NewPipeline(audit.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	p := &countingPDP{id: "backend", script: []core.Effect{core.Error, core.Error, core.Permit}}
	reg := protected(t, p, core.CalloutOptions{Breaker: true, BreakerThreshold: 2, BreakerCooldown: cooldown})
	reg.SetBreakerSink(log.BreakerTransition)
	m := obs.NewMetrics()
	reg.SetMetrics(m)

	// Two errors trip the breaker.
	for i := 0; i < 2; i++ {
		if d := decide(context.Background(), reg); d.Effect != core.Error {
			t.Fatalf("call %d = %+v", i, d)
		}
	}
	// While open the backend is not consulted.
	before := p.callCount()
	want := core.ErrorDecision("resilient(backend)", "circuit open: resilient(backend) is shedding calls while backend recovers")
	if d := decide(context.Background(), reg); d != want {
		t.Fatalf("shed decision = %+v, want %+v", d, want)
	}
	if p.callCount() != before {
		t.Fatal("open breaker still consulted the backend")
	}
	// Cooldown elapses; the probe hits the healed backend and closes.
	time.Sleep(cooldown + cooldown/2)
	if d := decide(context.Background(), reg); d.Effect != core.Permit {
		t.Fatalf("probe decision = %+v, want permit", d)
	}
	if opened, shed, closed := m.BreakerOpened.Load(), m.BreakerShed.Load(), m.BreakerClosed.Load(); opened != 1 || shed != 1 || closed != 1 {
		t.Errorf("breaker metrics opened=%d shed=%d closed=%d, want 1 each", opened, shed, closed)
	}

	// Transitions were audited in order, as system events naming the
	// bare PDP.
	recs := log.Filter(func(r audit.Record) bool { return r.Action == "circuit-breaker" })
	want3 := []audit.Record{
		{Action: "circuit-breaker", PDP: "backend", Source: "closed", Effect: "open", Reason: "2 consecutive failures (last: backend down)"},
		{Action: "circuit-breaker", PDP: "backend", Source: "open", Effect: "half-open", Reason: "cooldown elapsed, probing"},
		{Action: "circuit-breaker", PDP: "backend", Source: "half-open", Effect: "closed", Reason: "probe succeeded"},
	}
	if len(recs) != len(want3) {
		t.Fatalf("audited transitions = %d, want 3: %+v", len(recs), recs)
	}
	for i, r := range recs {
		w := want3[i]
		if r.Action != w.Action || r.PDP != w.PDP || r.Source != w.Source || r.Effect != w.Effect ||
			r.Reason != w.Reason || r.RequestID != "" || r.Subject != "" {
			t.Errorf("record %d = %+v, want %+v", i, r, w)
		}
	}
}
