package gram

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/faultinject"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
)

// flakyPDP fails (authorization system failure) every other decision.
type flakyPDP struct {
	mu    sync.Mutex
	calls int
}

func (f *flakyPDP) Name() string { return "flaky" }

func (f *flakyPDP) Authorize(_ context.Context, req *core.Request) core.Decision {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n%2 == 1 {
		return core.ErrorDecision("flaky", "backend unreachable")
	}
	return core.PermitDecision("flaky", "ok")
}

func TestFlakyPDPSurfacesSystemFailures(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzCallout, registry: func(r *core.Registry) {
		r.Bind(core.CalloutJobManager, &flakyPDP{})
	}})
	bo := e.client(boDN)
	// First decision errors; the client sees an authorization system
	// failure, distinct from a denial.
	_, err := bo.Submit(boJob, "")
	if !IsAuthorizationFailure(err) {
		t.Fatalf("first submit = %v, want system failure", err)
	}
	// Second decision permits: the system recovered without restart.
	if _, err := bo.Submit(boJob, ""); err != nil {
		t.Fatalf("second submit = %v", err)
	}
}

func TestMalformedWireInputDoesNotWedgeServer(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	// Raw connection sending garbage instead of a handshake.
	raw, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("NOT A HANDSHAKE\n")); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// A handshake followed by non-JSON application data.
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := gsi.Delegate(e.creds[boDN], time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	auth := gsi.NewAuthenticator(proxy, e.trust)
	_, br, err := auth.HandshakeClient(conn, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("garbage that is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The server reports the decode failure and drops the connection
	// rather than hanging.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := ReadMessage(br)
	if err == nil && msg.Err == nil {
		t.Errorf("garbage produced a success reply: %+v", msg)
	}
	conn.Close()

	// The server is still healthy for legitimate clients.
	bo := e.client(boDN)
	if _, err := bo.Submit(boJob, ""); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
}

func TestClientReconnectsAfterServerDrop(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a connection loss by closing the client's transport
	// underneath it.
	bo.Close()
	// The next call transparently reconnects and re-authenticates.
	st, err := bo.Status(contact)
	if err != nil {
		t.Fatalf("status after reconnect: %v", err)
	}
	if st.State != StateActive {
		t.Errorf("state = %s", st.State)
	}
}

func TestConcurrentCancelRace(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	contact, err := bo.Submit(`&(executable=test1)(count=1)(simduration=3600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	const racers = 8
	errs := make(chan error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.client(boDN)
			errs <- c.Cancel(contact)
		}()
	}
	wg.Wait()
	close(errs)
	winners, stateErrs := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			winners++
		default:
			var pe *ProtoError
			if errors.As(err, &pe) && pe.Code == CodeJobState {
				stateErrs++
			} else {
				t.Errorf("unexpected race outcome: %v", err)
			}
		}
	}
	if winners != 1 || winners+stateErrs != racers {
		t.Errorf("winners = %d, state errors = %d", winners, stateErrs)
	}
	if st, _ := bo.Status(contact); st.State != StateCanceled {
		t.Errorf("final state = %s", st.State)
	}
}

func TestCloseDuringActiveSubscription(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	contact, err := bo.Submit(`&(executable=test1)(count=1)(simduration=3600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	states, stop, err := bo.Watch(contact)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Drain the initial state, then shut the gatekeeper down while the
	// subscription is live: Close must not deadlock and the stream must
	// end.
	select {
	case <-states:
	case <-time.After(5 * time.Second):
		t.Fatal("no initial state")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.gk.Close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on live subscription")
	}
	select {
	case _, ok := <-states:
		if ok {
			for range states {
			}
		}
	case <-time.After(5 * time.Second):
		t.Error("subscription stream did not end after Close")
	}
}

// TestShortKeyHelloDoesNotKillGatekeeper sends the two hellos that put a
// 3-byte Ed25519 public key under a signature check — before anything
// about the peer is authenticated. ed25519.Verify panics on such a key;
// the gatekeeper has to count one failed handshake for each and go on
// serving.
func TestShortKeyHelloDoesNotKillGatekeeper(t *testing.T) {
	m := obs.NewMetrics()
	e := newEnv(t, envOpts{mode: AuthzLegacy, tune: func(c *Config) { c.Metrics = m }})
	hellos, err := faultinject.ShortKeyHellos(e.creds[boDN])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parent", "leaf"} {
		failed := m.HandshakesFailed.Load()
		conn, err := net.Dial("tcp", e.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hellos[name]); err != nil {
			t.Fatal(err)
		}
		// The gatekeeper hangs up on a failed handshake; EOF is its answer.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Errorf("%s: gatekeeper kept the connection: %v", name, err)
		}
		conn.Close()
		if got := m.HandshakesFailed.Load() - failed; got != 1 {
			t.Errorf("%s: gsi_handshakes_failed_total moved by %d, want 1", name, got)
		}
	}
	if _, err := e.client(boDN).Submit(boJob, ""); err != nil {
		t.Fatalf("honest client after the short-key hellos: %v", err)
	}
}

// TestBrokenHandshakePeersAreCounted: a peer whose hello stops mid-frame
// and one that hangs up halfway through its proof are each one failed
// handshake in the metrics and nothing else in the process — no
// goroutine, no descriptor — and the next client is served.
func TestBrokenHandshakePeersAreCounted(t *testing.T) {
	m := obs.NewMetrics()
	e := newEnv(t, envOpts{mode: AuthzLegacy, tune: func(c *Config) { c.Metrics = m }})
	bo := e.client(boDN)
	if _, err := bo.Submit(boJob, ""); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}
	bo.Close()
	eventually(t, "the warm-up connection to end", func() bool { return m.ConnsActive.Load() == 0 })
	goroutines := runtime.NumGoroutine()
	fds, err := faultinject.OpenFDs()
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	truncated, err := faultinject.TruncatedHello(e.creds[boDN])
	if err != nil {
		t.Fatal(err)
	}
	for name, play := range map[string]func(net.Conn) error{
		"truncated hello": func(conn net.Conn) error {
			defer conn.Close()
			_, err := conn.Write(truncated)
			return err
		},
		"mid-proof hang-up": func(conn net.Conn) error { return faultinject.HangUpMidProof(conn, e.creds[boDN]) },
	} {
		failed := m.HandshakesFailed.Load()
		conn, err := net.Dial("tcp", e.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := play(conn); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		eventually(t, name+" to be counted as a failed handshake", func() bool { return m.HandshakesFailed.Load() == failed+1 })
		settled(t, goroutines)
		eventually(t, name+" to release its descriptor", func() bool {
			n, err := faultinject.OpenFDs()
			return err == nil && n <= fds
		})
	}
	if got := m.HandshakesFull.Load(); got != 1 {
		t.Errorf("gsi_handshakes_full_total = %d, want the warm-up's 1", got)
	}
	if _, err := e.client(boDN).Submit(boJob, ""); err != nil {
		t.Fatalf("honest client after the broken handshakes: %v", err)
	}
}
