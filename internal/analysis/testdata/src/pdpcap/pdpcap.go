// Fixture for the pdpcap analyzer: PDP capability declarations
// (core.NonBlockingPDP, core.EffectfulPDP) must match what the
// authorize path actually does.
package pdpcap

import (
	"context"
	"net"
	"time"

	"core"
)

// GoodInProc truthfully declares NonBlockingPDP: pure map lookups.
type GoodInProc struct {
	rules map[string]bool
}

func (p *GoodInProc) Name() string      { return "good" }
func (p *GoodInProc) NonBlocking() bool { return true }

func (p *GoodInProc) Authorize(_ context.Context, req *core.Request) core.Decision {
	if p.rules[req.Subject] {
		return core.PermitDecision("good", "rule matched")
	}
	return core.DenyDecision("good", "no rule")
}

// DialingNonBlocking claims NonBlockingPDP but dials the network.
type DialingNonBlocking struct {
	addr string
}

func (p *DialingNonBlocking) Name() string      { return "dialer" }
func (p *DialingNonBlocking) NonBlocking() bool { return true }

func (p *DialingNonBlocking) Authorize(_ context.Context, req *core.Request) core.Decision { // want `DialingNonBlocking declares core\.NonBlockingPDP but Authorize calls net\.Dial`
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return core.ErrorDecision("dialer", err.Error())
	}
	conn.Close()
	return core.PermitDecision("dialer", "remote said yes")
}

// IndirectSleeper claims NonBlockingPDP but blocks through a helper.
type IndirectSleeper struct{}

func (p *IndirectSleeper) Name() string      { return "indirect" }
func (p *IndirectSleeper) NonBlocking() bool { return true }

func (p *IndirectSleeper) Authorize(_ context.Context, req *core.Request) core.Decision { // want `IndirectSleeper declares core\.NonBlockingPDP but Authorize calls slowLookup, which calls time\.Sleep`
	return slowLookup(req)
}

func slowLookup(req *core.Request) core.Decision {
	time.Sleep(10 * time.Millisecond)
	return core.DenyDecision("indirect", "slow path")
}

// WaitingNonBlocking claims NonBlockingPDP but parks in a select with
// no default clause.
type WaitingNonBlocking struct {
	done chan struct{}
}

func (p *WaitingNonBlocking) Name() string      { return "waiter" }
func (p *WaitingNonBlocking) NonBlocking() bool { return true }

func (p *WaitingNonBlocking) Authorize(_ context.Context, req *core.Request) core.Decision { // want `WaitingNonBlocking declares core\.NonBlockingPDP but Authorize blocks in a select without default`
	select {
	case <-p.done:
		return core.DenyDecision("waiter", "shut down")
	}
}

// PollingNonBlocking only ever attempts a non-blocking receive
// (select with default), which the contract tolerates.
type PollingNonBlocking struct {
	updates chan map[string]bool
	rules   map[string]bool
}

func (p *PollingNonBlocking) Name() string      { return "poller" }
func (p *PollingNonBlocking) NonBlocking() bool { return true }

func (p *PollingNonBlocking) Authorize(_ context.Context, req *core.Request) core.Decision {
	select {
	case rules := <-p.updates:
		_ = rules
	default:
	}
	if p.rules[req.Subject] {
		return core.PermitDecision("poller", "rule matched")
	}
	return core.DenyDecision("poller", "no rule")
}

// SlowButHonest blocks and says so: it does NOT declare NonBlockingPDP,
// so the deadline watchdog covers it. No finding.
type SlowButHonest struct{}

func (p *SlowButHonest) Name() string { return "honest" }

func (p *SlowButHonest) Authorize(_ context.Context, req *core.Request) core.Decision {
	time.Sleep(time.Millisecond)
	return core.DenyDecision("honest", "took our time")
}

// QuotaCounter mutates its own state per decision without declaring
// core.EffectfulPDP: a retry would skew the count.
type QuotaCounter struct {
	used int
}

func (p *QuotaCounter) Name() string { return "quota" }

func (p *QuotaCounter) Authorize(_ context.Context, req *core.Request) core.Decision { // want `QuotaCounter\.Authorize writes p\.used \(shared via parameter p\) but QuotaCounter does not declare core\.EffectfulPDP`
	p.used++
	if p.used > 10 {
		return core.DenyDecision("quota", "exhausted")
	}
	return core.PermitDecision("quota", "within quota")
}

// HonestCounter does the same but declares EffectfulPDP. No finding.
type HonestCounter struct {
	used int
}

func (p *HonestCounter) Name() string        { return "honest-quota" }
func (p *HonestCounter) SideEffecting() bool { return true }

func (p *HonestCounter) Authorize(_ context.Context, req *core.Request) core.Decision {
	p.used++
	if p.used > 10 {
		return core.DenyDecision("honest-quota", "exhausted")
	}
	return core.PermitDecision("honest-quota", "within quota")
}

// RequestStamper writes through a reference parameter (the request)
// without declaring EffectfulPDP.
type RequestStamper struct{}

func (p *RequestStamper) Name() string { return "stamper" }

func (p *RequestStamper) Authorize(_ context.Context, req *core.Request) core.Decision { // want `RequestStamper\.Authorize writes req\.Action \(shared via parameter req\) but RequestStamper does not declare core\.EffectfulPDP`
	req.Action = "normalized:" + req.Action
	return core.DenyDecision("stamper", "not applicable")
}

// MemoPDP memoizes decisions in a receiver map. The write is real but
// idempotent per subject, so it carries an audited waiver.
type MemoPDP struct {
	memo map[string]core.Decision
}

func (p *MemoPDP) Name() string { return "memo" }

//authlint:ignore pdpcap memo write is idempotent per subject; replay under fan-out is safe and audited here
func (p *MemoPDP) Authorize(_ context.Context, req *core.Request) core.Decision {
	if d, ok := p.memo[req.Subject]; ok {
		return d
	}
	d := core.DenyDecision("memo", "first sight")
	p.memo[req.Subject] = d
	return d
}

// localState only mutates locals and by-value copies: no finding.
type localState struct{}

func (p localState) Name() string { return "local" }

func (p localState) Authorize(_ context.Context, req *core.Request) core.Decision {
	seen := map[string]bool{}
	seen[req.Subject] = true
	n := 0
	n++
	_ = n
	return core.DenyDecision("local", "stateless")
}
