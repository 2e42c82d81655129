package faultinject

import (
	"context"
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
)

type recordingPDP struct{ calls int }

func (p *recordingPDP) Name() string { return "inner" }
func (p *recordingPDP) Authorize(req *core.Request) core.Decision {
	p.calls++
	return core.PermitDecision("inner", "ok")
}

func req() *core.Request { return &core.Request{Subject: "/O=Grid/CN=Bo", Action: "start"} }

// replay runs n decisions against a fresh ChaosPDP and returns the
// observed effect sequence.
func replay(seed int64, cfg PDPConfig, n int) []core.Effect {
	c := NewChaosPDP(&recordingPDP{}, seed, cfg)
	out := make([]core.Effect, n)
	for i := range out {
		out[i] = c.Authorize(req()).Effect
	}
	return out
}

func TestChaosPDPIsDeterministic(t *testing.T) {
	cfg := PDPConfig{ErrorRate: 0.5}
	a := replay(42, cfg, 200)
	b := replay(42, cfg, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	var sawError, sawPermit bool
	for _, e := range a {
		switch e {
		case core.Error:
			sawError = true
		case core.Permit:
			sawPermit = true
		}
	}
	if !sawError || !sawPermit {
		t.Fatalf("ErrorRate 0.5 over 200 calls produced no mix (error=%v permit=%v)", sawError, sawPermit)
	}
}

func TestChaosPDPHealAndStats(t *testing.T) {
	c := NewChaosPDP(&recordingPDP{}, 1, PDPConfig{ErrorRate: 1})
	for i := 0; i < 5; i++ {
		if d := c.Authorize(req()); d.Effect != core.Error {
			t.Fatalf("broken chaos returned %+v", d)
		}
	}
	c.SetConfig(PDPConfig{})
	if d := c.Authorize(req()); d.Effect != core.Permit {
		t.Fatalf("healed chaos returned %+v", d)
	}
	calls, errs, hangs := c.Stats()
	if calls != 6 || errs != 5 || hangs != 0 {
		t.Fatalf("stats = %d/%d/%d, want 6/5/0", calls, errs, hangs)
	}
}

func TestChaosPDPHangHonorsContext(t *testing.T) {
	c := NewChaosPDP(&recordingPDP{}, 1, PDPConfig{HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan core.Decision, 1)
	go func() { done <- c.AuthorizeContext(ctx, req()) }()
	select {
	case d := <-done:
		if d.Effect != core.Error {
			t.Fatalf("aborted hang returned %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hang did not abort with its context")
	}
	if _, _, hangs := c.Stats(); hangs != 1 {
		t.Fatalf("hangs = %d, want 1", hangs)
	}
}

func TestChaosPDPLatencyDelaysButPassesThrough(t *testing.T) {
	c := NewChaosPDP(&recordingPDP{}, 1, PDPConfig{Latency: 10 * time.Millisecond})
	start := time.Now()
	if d := c.Authorize(req()); d.Effect != core.Permit {
		t.Fatalf("decision = %+v", d)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("latency injection took only %v", elapsed)
	}
}

func TestConnFailsOnScheduleAndStaysFailed(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
			if _, err := b.Write([]byte("pong")); err != nil {
				return
			}
		}
	}()
	fc := NewConn(a, 0, 2) // second write fails
	if _, err := fc.Write([]byte("ping")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := fc.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := fc.Write([]byte("ping")); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("second write err = %v, want ECONNRESET", err)
	}
	// A reset connection stays reset — reads fail too.
	if _, err := fc.Read(buf); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("read after reset err = %v, want ECONNRESET", err)
	}
}

// TestConnBreaksGSIHandshakeCleanly drives a real GSI handshake over a
// flaky connection: the client side must surface an error promptly, not
// hang, when the transport resets mid-protocol.
func TestConnBreaksGSIHandshakeCleanly(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=Chaos CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	serverCred, err := ca.Issue("/O=Grid/CN=server", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	clientCred, err := ca.Issue("/O=Grid/CN=client", gsi.KindUser)
	if err != nil {
		t.Fatal(err)
	}

	cs, ss := net.Pipe()
	defer cs.Close()
	defer ss.Close()
	go func() {
		// The server sees a peer that goes silent; tear the pipe down
		// when accept fails so neither side can block forever.
		defer ss.Close()
		_, _, _ = gsi.NewAuthenticator(serverCred, trust).HandshakeAccept(ss)
	}()

	flaky := NewConn(cs, 0, 2) // client's second frame dies
	done := make(chan error, 1)
	go func() {
		_, _, err := gsi.NewAuthenticator(clientCred, trust).HandshakeClient(flaky, "server")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("handshake over a reset transport succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handshake hung on a reset transport")
	}
}

func TestGatePDPHoldsUntilReleased(t *testing.T) {
	g := NewGatePDP(core.PDPFunc{ID: "inner", Fn: func(*core.Request) core.Decision {
		return core.PermitDecision("inner", "ok")
	}})
	done := make(chan core.Decision, 3)
	for i := 0; i < 2; i++ {
		go func() { done <- g.Authorize(req()) }()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- g.AuthorizeContext(ctx, req()) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if now, _ := g.Held(); now == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("three evaluations never reached the gate")
		}
	}
	select {
	case d := <-done:
		t.Fatalf("closed gate let %+v through", d)
	default:
	}
	cancel()
	if d := <-done; d.Effect != core.Error {
		t.Fatalf("abandoned evaluation answered %+v, want Error", d)
	}
	g.Release()
	g.Release() // idempotent
	for i := 0; i < 2; i++ {
		if d := <-done; d.Effect != core.Permit {
			t.Fatalf("released evaluation answered %+v", d)
		}
	}
	if d := g.Authorize(req()); d.Effect != core.Permit {
		t.Fatalf("open gate answered %+v", d)
	}
	if now, peak := g.Held(); now != 0 || peak != 3 {
		t.Fatalf("Held = %d now, %d peak; want 0 and 3", now, peak)
	}
}
