// Package faultinject is the chaos harness for the authorization
// chain and its transport: a PDP wrapper that injects latency, errors
// and hangs into callout evaluation, and a net.Conn wrapper that
// fails reads and writes on schedule. Both are deterministic — the
// PDP wrapper draws from a caller-seeded source, the conn wrapper
// counts operations — so a soak test that found a bug replays it.
//
// Nothing in this package ships in a production configuration; it
// exists so the resilience layer (internal/resilience) and the GRAM
// degraded modes can be exercised under the failure conditions the
// paper's remote-PDP deployment model implies (Akenti and CAS callouts
// crossing the network).
package faultinject

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridauth/internal/core"
)

// PDPConfig selects the faults a ChaosPDP injects. Rates are
// probabilities in [0, 1], evaluated per call in order: hang, then
// error, then latency; a call that draws no fault passes through to
// the wrapped PDP.
type PDPConfig struct {
	// ErrorRate is the probability of answering with an injected Error
	// decision (the transient "authorization system failure" class).
	ErrorRate float64
	// HangRate is the probability of hanging: the call blocks until
	// its context is cancelled (a timeout wrapper's watchdog, the
	// request being abandoned) and then returns Error. A hang injected
	// into a context-free call blocks forever — exactly the failure
	// mode a deadline-less PEP cannot survive.
	HangRate float64
	// Latency is added to every passed-through call.
	Latency time.Duration
	// LatencyJitter adds up to this much more, uniformly.
	LatencyJitter time.Duration
}

// ChaosPDP wraps a PDP with configurable fault injection. The
// configuration is swappable at runtime (SetConfig), so a soak test
// can fail a backend hard and then heal it.
type ChaosPDP struct {
	inner core.PDP

	mu  sync.Mutex
	rng *rand.Rand
	cfg PDPConfig

	calls  atomic.Uint64
	errors atomic.Uint64
	hangs  atomic.Uint64
}

var _ core.ContextPDP = (*ChaosPDP)(nil)

// NewChaosPDP wraps inner, drawing fault rolls from a source seeded
// with seed.
func NewChaosPDP(inner core.PDP, seed int64, cfg PDPConfig) *ChaosPDP {
	return &ChaosPDP{inner: inner, rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// SetConfig replaces the fault configuration (runtime heal/break).
func (c *ChaosPDP) SetConfig(cfg PDPConfig) {
	c.mu.Lock()
	c.cfg = cfg
	c.mu.Unlock()
}

// Stats reports calls seen, errors injected and hangs injected.
func (c *ChaosPDP) Stats() (calls, errors, hangs uint64) {
	return c.calls.Load(), c.errors.Load(), c.hangs.Load()
}

// Name implements core.PDP.
func (c *ChaosPDP) Name() string { return "chaos(" + c.inner.Name() + ")" }

// Authorize implements core.PDP. A hang drawn here blocks forever —
// use the context path unless that is the point of the test.
func (c *ChaosPDP) Authorize(req *core.Request) core.Decision {
	return c.AuthorizeContext(context.Background(), req)
}

// AuthorizeContext implements core.ContextPDP.
func (c *ChaosPDP) AuthorizeContext(ctx context.Context, req *core.Request) core.Decision {
	c.calls.Add(1)
	c.mu.Lock()
	cfg := c.cfg
	hangRoll := c.rng.Float64()
	errRoll := c.rng.Float64()
	jitterRoll := c.rng.Float64()
	c.mu.Unlock()

	if hangRoll < cfg.HangRate {
		c.hangs.Add(1)
		<-ctx.Done()
		return core.ErrorDecision(c.Name(), "injected hang aborted: "+ctx.Err().Error())
	}
	if errRoll < cfg.ErrorRate {
		c.errors.Add(1)
		return core.ErrorDecision(c.Name(), "injected authorization system failure")
	}
	if d := cfg.Latency + time.Duration(jitterRoll*float64(cfg.LatencyJitter)); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return core.ErrorDecision(c.Name(), "request abandoned during injected latency: "+ctx.Err().Error())
		}
	}
	return core.AuthorizeWithContext(ctx, c.inner, req)
}

// Conn wraps a net-style connection (anything with Read/Write; the
// GSI handshake runs over io.ReadWriter) and fails operations on a
// deterministic schedule: the Nth read and/or Mth write returns
// ECONNRESET. Counts are 1-based; 0 means "never fail".
type Conn struct {
	// Inner is the wrapped connection.
	Inner interface {
		Read(p []byte) (int, error)
		Write(p []byte) (int, error)
	}
	// Err is the injected error (nil selects syscall.ECONNRESET).
	Err error

	reads     atomic.Int64
	writes    atomic.Int64
	failRead  int64
	failWrite int64
	failed    atomic.Bool
}

// NewConn wraps inner so that read number failAtRead and write number
// failAtWrite (1-based; 0 disables) fail with ECONNRESET, as does
// every operation after the first failure — a reset connection stays
// reset.
func NewConn(inner interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
}, failAtRead, failAtWrite int) *Conn {
	return &Conn{Inner: inner, failRead: int64(failAtRead), failWrite: int64(failAtWrite)}
}

func (c *Conn) err() error {
	if c.Err != nil {
		return c.Err
	}
	return syscall.ECONNRESET
}

// Read implements io.Reader with scheduled failure. A connection that
// failed in EITHER direction is reset: both directions fail from then
// on, matching what a real ECONNRESET does to a socket.
func (c *Conn) Read(p []byte) (int, error) {
	n := c.reads.Add(1)
	if c.failed.Load() || (c.failRead > 0 && n >= c.failRead) {
		c.failed.Store(true)
		return 0, c.err()
	}
	return c.Inner.Read(p)
}

// Write implements io.Writer with scheduled failure; see Read for the
// stays-reset rule.
func (c *Conn) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	if c.failed.Load() || (c.failWrite > 0 && n >= c.failWrite) {
		c.failed.Store(true)
		return 0, c.err()
	}
	return c.Inner.Write(p)
}

// GatePDP holds every evaluation at a closed gate until Release opens
// it, and counts the evaluations held. Where ChaosPDP's hang ends only
// with the request, the gate ends when the test says so, which makes
// "exactly N requests in flight" a state a test can wait for and then
// leave: the worker-pool saturation fault.
type GatePDP struct {
	inner core.PDP
	open  chan struct{}
	once  sync.Once

	held, peak atomic.Int64
}

var _ core.ContextPDP = (*GatePDP)(nil)

// NewGatePDP wraps inner behind a closed gate.
func NewGatePDP(inner core.PDP) *GatePDP {
	return &GatePDP{inner: inner, open: make(chan struct{})}
}

// Release opens the gate for the held evaluations and every later one.
func (g *GatePDP) Release() { g.once.Do(func() { close(g.open) }) }

// Held reports how many evaluations are in progress now — at the gate,
// or past it and not yet answered — and the most that ever were at once.
func (g *GatePDP) Held() (now, peak int) {
	return int(g.held.Load()), int(g.peak.Load())
}

// Name implements core.PDP.
func (g *GatePDP) Name() string { return "gate(" + g.inner.Name() + ")" }

// Authorize implements core.PDP.
func (g *GatePDP) Authorize(req *core.Request) core.Decision {
	return g.AuthorizeContext(context.Background(), req)
}

// AuthorizeContext implements core.ContextPDP: an evaluation whose
// request is abandoned at the gate answers Error, never Permit.
func (g *GatePDP) AuthorizeContext(ctx context.Context, req *core.Request) core.Decision {
	n := g.held.Add(1)
	defer g.held.Add(-1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	select {
	case <-g.open:
		return core.AuthorizeWithContext(ctx, g.inner, req)
	case <-ctx.Done():
		return core.ErrorDecision(g.Name(), "request abandoned at the gate: "+ctx.Err().Error())
	}
}
