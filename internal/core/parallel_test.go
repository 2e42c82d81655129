package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/policy"
)

// pdpOutcome enumerates the four decision shapes a child can produce.
var pdpOutcomes = []struct {
	tag  string
	make func(name string) PDP
}{
	{"P", permitAll},
	{"D", denyAll},
	{"E", errorAll},
	{"A", abstainAll},
}

var allModes = []CombineMode{RequireAllPermit, DenyOverrides, PermitOverrides, FirstApplicable}

// TestParallelEquivalence checks that ParallelCombined produces the
// EXACT decision (effect, source and reason) Combined produces, for
// every permutation of child outcomes of length 0..3 under every
// combination mode. With deterministic children, which child's deny or
// error gets reported is part of the contract — parallel evaluation
// must not change it.
func TestParallelEquivalence(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	var cases [][]int // indices into pdpOutcomes
	cases = append(cases, nil)
	for a := range pdpOutcomes {
		cases = append(cases, []int{a})
		for b := range pdpOutcomes {
			cases = append(cases, []int{a, b})
			for c := range pdpOutcomes {
				cases = append(cases, []int{a, b, c})
			}
		}
	}
	for _, mode := range allModes {
		for _, perm := range cases {
			tag := ""
			pdps := make([]PDP, len(perm))
			for i, oi := range perm {
				o := pdpOutcomes[oi]
				tag += o.tag
				pdps[i] = o.make(fmt.Sprintf("p%d", i))
			}
			t.Run(fmt.Sprintf("%s/%s", mode, tag), func(t *testing.T) {
				seq := NewCombined(mode, pdps...).Authorize(req)
				par := NewParallelCombined(mode, pdps...).Authorize(req)
				if par.Effect != seq.Effect || par.Reason != seq.Reason {
					t.Errorf("parallel = (%v, %q, %q), sequential = (%v, %q, %q)",
						par.Effect, par.Source, par.Reason, seq.Effect, seq.Source, seq.Reason)
				}
				// Sources differ only by the combiner's own label (the
				// parallel one carries a "parallel-" prefix); a decision
				// attributed to a CHILD (p0/p1/p2) must name the same child.
				if len(seq.Source) == 2 && seq.Source[0] == 'p' && par.Source != seq.Source {
					t.Errorf("attributed source: parallel %q, sequential %q", par.Source, seq.Source)
				}
			})
		}
	}
}

// slowPDP sleeps before answering, simulating a remote callout.
type slowPDP struct {
	name  string
	delay time.Duration
	d     Decision
}

func (p *slowPDP) Name() string { return p.name }
func (p *slowPDP) Authorize(*Request) Decision {
	time.Sleep(p.delay)
	return p.d
}

// TestParallelConcurrency verifies the chain actually overlaps child
// evaluation: four children sleeping 30ms each must finish well under
// the 120ms a sequential pass needs.
func TestParallelConcurrency(t *testing.T) {
	const delay = 30 * time.Millisecond
	var pdps []PDP
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("slow%d", i)
		pdps = append(pdps, &slowPDP{name: name, delay: delay, d: PermitDecision(name, "ok")})
	}
	req := &Request{Subject: bo, Action: policy.ActionStart}
	start := time.Now()
	d := NewParallelCombined(RequireAllPermit, pdps...).Authorize(req)
	elapsed := time.Since(start)
	if d.Effect != Permit {
		t.Fatalf("Effect = %v (%s)", d.Effect, d.Reason)
	}
	if elapsed >= 4*delay {
		t.Errorf("parallel chain took %v, not faster than sequential %v", elapsed, 4*delay)
	}
}

// blockingPDP is a ContextPDP that blocks until its context is
// cancelled, recording that the cancellation arrived.
type blockingPDP struct {
	name      string
	cancelled atomic.Bool
}

func (p *blockingPDP) Name() string { return p.name }
func (p *blockingPDP) Authorize(*Request) Decision {
	return ErrorDecision(p.name, "called without context")
}
func (p *blockingPDP) AuthorizeContext(ctx context.Context, _ *Request) Decision {
	<-ctx.Done()
	p.cancelled.Store(true)
	return ErrorDecision(p.name, "cancelled")
}

// TestParallelEarlyExitCancels verifies that once the combined outcome
// is determined (first deny under RequireAllPermit), the evaluation
// context is cancelled so still-running context-aware children abort
// instead of completing doomed work.
func TestParallelEarlyExitCancels(t *testing.T) {
	blocker := &blockingPDP{name: "slow-remote"}
	chain := NewParallelCombined(RequireAllPermit, denyAll("vo"), blocker)
	req := &Request{Subject: bo, Action: policy.ActionStart}
	done := make(chan Decision, 1)
	go func() { done <- chain.Authorize(req) }()
	select {
	case d := <-done:
		if d.Effect != Deny {
			t.Fatalf("Effect = %v, want Deny", d.Effect)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("combined decision never returned: early exit did not cancel the blocking child")
	}
	// The blocker's goroutine observes cancellation asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for !blocker.cancelled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("blocking child never observed cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelOuterContextCancellation: cancelling the PEP's request
// context aborts context-aware children even when no child has decided.
func TestParallelOuterContextCancellation(t *testing.T) {
	blocker := &blockingPDP{name: "remote"}
	chain := NewParallelCombined(RequireAllPermit, blocker, blocker)
	ctx, cancel := context.WithCancel(context.Background())
	req := &Request{Subject: bo, Action: policy.ActionStart}
	done := make(chan Decision, 1)
	go func() { done <- chain.AuthorizeContext(ctx, req) }()
	cancel()
	select {
	case d := <-done:
		if d.Effect != Error {
			t.Errorf("cancelled evaluation must fail closed with Error, got %v", d.Effect)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the chain")
	}
}

// effectPDP counts evaluations and declares them side-effecting, like
// the allocation PDP reserving budget on evaluation.
type effectPDP struct {
	countingPDP
	effectful bool
}

func (p *effectPDP) SideEffecting() bool { return p.effectful }

func newEffectPDP(name string, effectful bool, d Decision) *effectPDP {
	p := &effectPDP{effectful: effectful}
	p.name = name
	p.d = func(*Request) Decision { return d }
	return p
}

// TestParallelSideEffectingNotSpeculated is the REVIEW.md regression:
// a side-effecting child (allocation reservation) bound after a denying
// source must NOT be evaluated by the parallel combiner — sequential
// RequireAllPermit evaluation would never reach it, and its effect
// (budget drained by a request that is never admitted) cannot be
// undone by discarding the decision.
func TestParallelSideEffectingNotSpeculated(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	effect := newEffectPDP("alloc", true, AbstainDecision("alloc", "reserved"))
	d := NewParallelCombined(RequireAllPermit, permitAll("vo"), denyAll("local"), effect).Authorize(req)
	if d.Effect != Deny {
		t.Fatalf("Effect = %v, want Deny", d.Effect)
	}
	if n := effect.calls.Load(); n != 0 {
		t.Errorf("side-effecting child evaluated %d times on a denied request, want 0", n)
	}
	// When every earlier source accepts, the side-effecting child runs —
	// exactly once, as in sequential evaluation.
	d = NewParallelCombined(RequireAllPermit, permitAll("vo"), permitAll("local"), effect).Authorize(req)
	if d.Effect != Permit {
		t.Fatalf("Effect = %v (%s), want Permit", d.Effect, d.Reason)
	}
	if n := effect.calls.Load(); n != 1 {
		t.Errorf("side-effecting child evaluated %d times on a permitted request, want 1", n)
	}
	// An unmarked (effectful=false) child IS fanned out: the marker, not
	// the type, gates speculation.
	pure := newEffectPDP("pure", false, AbstainDecision("pure", "n/a"))
	NewParallelCombined(RequireAllPermit, denyAll("local"), pure).Authorize(req)
	// The deny decides the request without waiting for the pure child,
	// whose goroutine may not have been scheduled yet.
	for deadline := time.Now().Add(5 * time.Second); pure.calls.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := pure.calls.Load(); n != 1 {
		t.Errorf("pure child evaluated %d times, want 1 (eager fan-out)", n)
	}
}

// TestParallelSideEffectingMatchesSequential: for every prefix outcome
// and mode, the parallel combiner must evaluate a trailing
// side-effecting child exactly as often as the sequential combiner
// does, and produce the same decision.
func TestParallelSideEffectingMatchesSequential(t *testing.T) {
	req := &Request{Subject: bo, Action: policy.ActionStart}
	for _, mode := range allModes {
		for _, o := range pdpOutcomes {
			seqEff := newEffectPDP("alloc", true, AbstainDecision("alloc", "reserved"))
			parEff := newEffectPDP("alloc", true, AbstainDecision("alloc", "reserved"))
			prefix := o.make("p0")
			seq := NewCombined(mode, prefix, seqEff).Authorize(req)
			par := NewParallelCombined(mode, prefix, parEff).Authorize(req)
			if seq.Effect != par.Effect || seq.Reason != par.Reason {
				t.Errorf("%s/%s: parallel = (%v, %q), sequential = (%v, %q)",
					mode, o.tag, par.Effect, par.Reason, seq.Effect, seq.Reason)
			}
			if s, p := seqEff.calls.Load(), parEff.calls.Load(); s != p {
				t.Errorf("%s/%s: side-effecting child evaluated %d times in parallel, %d sequentially", mode, o.tag, p, s)
			}
		}
	}
}

// TestParallelEmptyDefaultDeny mirrors the sequential default-deny rule.
func TestParallelEmptyDefaultDeny(t *testing.T) {
	d := NewParallelCombined(RequireAllPermit).Authorize(&Request{Subject: bo})
	if d.Effect != Deny {
		t.Errorf("empty parallel chain: Effect = %v, want Deny", d.Effect)
	}
}

// TestParallelConcurrentDispatch hammers one chain from many
// goroutines; run under -race this is the data-race check for the
// fan-out machinery.
func TestParallelConcurrentDispatch(t *testing.T) {
	chain := NewParallelCombined(RequireAllPermit,
		permitAll("vo"), permitAll("local"), abstainAll("owner"))
	req := &Request{Subject: bo, Action: policy.ActionStart}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if d := chain.Authorize(req); d.Effect != Permit {
					t.Errorf("Effect = %v", d.Effect)
					return
				}
			}
		}()
	}
	wg.Wait()
}
