package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gridauth/internal/policy"
)

// The registry prebuilds ONE chain per callout type and hands it to
// every connection worker, so a chain is walked by many goroutines at
// once. The TestParallel* tests here pin what that sharing must not
// change: parallel callers of one chain each get exactly the decision a
// lone caller gets. They are the -race check on anything a later change
// makes a chain remember between requests.

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

// parallelCallers is how many goroutines walk a shared chain at once.
const parallelCallers = 8

// inParallel calls decide from parallelCallers goroutines at once and
// returns every caller's decision.
func inParallel(decide func() Decision) []Decision {
	out := make([]Decision, parallelCallers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = decide()
		}(i)
	}
	wg.Wait()
	return out
}

// TestParallelEquivalence checks, for every permutation of child
// outcomes of length 0..3 under every combination mode, that parallel
// callers of one chain built the way the registry builds it (name
// frozen, entered through AuthorizeContext) each get the EXACT decision
// — effect, source and reason — a lone caller gets from an unfrozen
// chain through Authorize. Which child's deny or error gets reported is
// part of the contract.
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
				want := NewCombined(mode, pdps...).Authorize(req)
				shared := NewCombined(mode, pdps...)
				shared.freezeName()
				for i, got := range inParallel(func() Decision {
					return shared.AuthorizeContext(context.Background(), req)
				}) {
					if got != want {
						t.Errorf("caller %d = (%v, %q, %q), lone caller = (%v, %q, %q)",
							i, got.Effect, got.Source, got.Reason, want.Effect, want.Source, want.Reason)
					}
				}
			})
		}
	}
}

// blockingPDP is a ContextPDP that blocks until its context is
// cancelled.
type blockingPDP struct{ name string }

func (p *blockingPDP) Name() string { return p.name }
func (p *blockingPDP) Authorize(*Request) Decision {
	return ErrorDecision(p.name, "called without context")
}
func (p *blockingPDP) AuthorizeContext(ctx context.Context, _ *Request) Decision {
	<-ctx.Done()
	return ErrorDecision(p.name, "cancelled")
}

// TestParallelOuterContextCancellation: cancelling the PEP's request
// context releases every caller blocked in a context-aware child, and
// each fails closed.
func TestParallelOuterContextCancellation(t *testing.T) {
	blocker := &blockingPDP{name: "remote"}
	chain := NewCombined(RequireAllPermit, blocker, blocker)
	ctx, cancel := context.WithCancel(context.Background())
	req := &Request{Subject: bo, Action: policy.ActionStart}
	done := make(chan []Decision, 1)
	go func() {
		done <- inParallel(func() Decision { return chain.AuthorizeContext(ctx, req) })
	}()
	cancel()
	select {
	case ds := <-done:
		for i, d := range ds {
			if d.Effect != Error {
				t.Errorf("caller %d: cancelled evaluation must fail closed with Error, got %v", i, d.Effect)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the chain")
	}
}

// TestParallelEmptyDefaultDeny: an empty chain denies every caller.
func TestParallelEmptyDefaultDeny(t *testing.T) {
	chain := NewCombined(RequireAllPermit)
	for i, d := range inParallel(func() Decision { return chain.Authorize(&Request{Subject: bo}) }) {
		if d.Effect != Deny {
			t.Errorf("caller %d on an empty chain: Effect = %v, want Deny", i, d.Effect)
		}
	}
}

// TestParallelConcurrentDispatch hammers one callout type through the
// registry while its chain is being rebuilt underneath: every dispatch
// sees a whole chain, old or new.
func TestParallelConcurrentDispatch(t *testing.T) {
	reg := NewRegistry()
	for _, p := range []PDP{permitAll("vo"), permitAll("local"), abstainAll("owner")} {
		reg.Bind(CalloutJobManager, p)
	}
	req := &Request{Subject: bo, Action: policy.ActionStart}
	stop := make(chan struct{})
	var rebuilds sync.WaitGroup
	rebuilds.Add(1)
	go func() {
		defer rebuilds.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.SetMode(RequireAllPermit) // rebuilds every chain
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if d := reg.Invoke(CalloutJobManager, req); d.Effect != Permit {
					t.Errorf("Effect = %v (%s: %s)", d.Effect, d.Source, d.Reason)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rebuilds.Wait()
}
