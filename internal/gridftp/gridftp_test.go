package gridftp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/faultinject"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
)

const (
	aliceDN = gsi.DN("/O=Grid/CN=Alice")
	bobDN   = gsi.DN("/O=Grid/CN=Bob")
)

const ftpPolicy = `
# Everyone in /O=Grid may read the public area.
/O=Grid: &(action = get list)(dir = /public)

# Alice owns her home: writes capped at 1 MiB, deletes allowed.
/O=Grid/CN=Alice:
  &(action = get put list)(dir = /home/alice)(size<=1048576)
  &(action = delete)(dir = /home/alice)
`

type ftpEnv struct {
	store  *Store
	addr   string
	trust  *gsi.TrustStore
	alice  *gsi.Credential
	bob    *gsi.Credential
	svc    *gsi.Credential
	reg    *core.Registry
	server *Server
	log    *audit.Log
}

func newFtpEnv(t *testing.T) *ftpEnv {
	t.Helper()
	ca, err := gsi.NewCA("/O=Grid/CN=CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	alice, err := ca.Issue(aliceDN, gsi.KindUser)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := ca.Issue(bobDN, gsi.KindUser)
	if err != nil {
		t.Fatal(err)
	}
	svcCred, err := ca.Issue("/O=Grid/CN=gridftp/data.anl.gov", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	reg.Bind(CalloutGridFTP, &core.PolicyPDP{Policy: policy.MustParse(ftpPolicy, "site")})

	store := NewStore()
	store.Put("/public/readme.txt", []byte("welcome"))
	store.Put("/public/data.bin", []byte{1, 2, 3})
	store.Put("/home/alice/notes.txt", []byte("mine"))
	store.Put("/home/bob/secret.txt", []byte("bob's"))

	log, err := audit.NewPipeline(audit.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before start's cleanup, so it runs after the server has
	// stopped appending.
	t.Cleanup(func() {
		if err := log.Close(); err != nil {
			t.Errorf("audit close: %v", err)
		}
	})
	e := &ftpEnv{store: store, trust: trust, alice: alice, bob: bob, svc: svcCred, reg: reg, log: log}
	e.start(t, "127.0.0.1:0", nil)
	return e
}

// start serves a new server over the env's store and registry on addr.
// It authenticates with auth, or as NewServer has it when auth is nil.
// The returned stop closes the server and waits for Serve to return; the
// test's cleanup calls it too.
func (e *ftpEnv) start(t *testing.T, addr string, auth *gsi.Authenticator) (stop func()) {
	t.Helper()
	srv, err := NewServer(e.svc, e.trust, e.reg, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if auth != nil {
		srv.auth = auth
	}
	srv.SetAudit(e.log)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	stop = func() {
		srv.Close()
		<-done
	}
	t.Cleanup(stop)
	e.server, e.addr = srv, l.Addr().String()
	return stop
}

// counted is NewServer's authenticator with its handshakes counted into
// m.
func (e *ftpEnv) counted(t *testing.T, m *obs.Metrics) *gsi.Authenticator {
	t.Helper()
	issuer, err := gsi.NewTicketIssuer(0)
	if err != nil {
		t.Fatal(err)
	}
	return gsi.NewAuthenticator(e.svc, e.trust, gsi.WithTicketIssuer(issuer), gsi.WithMetrics(m))
}

func (e *ftpEnv) client(t *testing.T, cred *gsi.Credential) *Client {
	t.Helper()
	c := NewClient(e.addr, cred, e.trust)
	t.Cleanup(c.Close)
	return c
}

func TestPublicReadForEveryone(t *testing.T) {
	e := newFtpEnv(t)
	for _, cred := range []*gsi.Credential{e.alice, e.bob} {
		c := e.client(t, cred)
		data, err := c.Get("/public/readme.txt")
		if err != nil {
			t.Fatalf("%s: %v", cred.Identity(), err)
		}
		if string(data) != "welcome" {
			t.Errorf("data = %q", data)
		}
		names, err := c.List("/public")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 2 || names[0] != "data.bin" {
			t.Errorf("names = %v", names)
		}
	}
}

func TestHomeDirectoryRights(t *testing.T) {
	e := newFtpEnv(t)
	alice := e.client(t, e.alice)
	bob := e.client(t, e.bob)

	// Alice reads and writes her home.
	if err := alice.Put("/home/alice/new.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if data, err := alice.Get("/home/alice/new.txt"); err != nil || string(data) != "hello" {
		t.Fatalf("get back: %q, %v", data, err)
	}
	// Bob cannot read Alice's home; the policy names no grant for him.
	if _, err := bob.Get("/home/alice/notes.txt"); !errors.Is(err, ErrDenied) {
		t.Errorf("bob read alice's home: %v", err)
	}
	// Alice cannot write outside her grants.
	if err := alice.Put("/public/vandalism.txt", []byte("x")); !errors.Is(err, ErrDenied) {
		t.Errorf("alice wrote public: %v", err)
	}
	if err := alice.Put("/home/bob/x", []byte("x")); !errors.Is(err, ErrDenied) {
		t.Errorf("alice wrote bob's home: %v", err)
	}
	// Size cap applies: a 2 MiB upload is denied.
	big := bytes.Repeat([]byte("a"), 2<<20)
	if err := alice.Put("/home/alice/big.bin", big); !errors.Is(err, ErrDenied) {
		t.Errorf("oversized put: %v", err)
	}
	// Delete is a separate grant.
	if err := alice.Delete("/home/alice/new.txt"); err != nil {
		t.Fatal(err)
	}
	if err := bob.Delete("/public/readme.txt"); !errors.Is(err, ErrDenied) {
		t.Errorf("bob deleted public file: %v", err)
	}
}

func TestNotFoundAndBadPaths(t *testing.T) {
	e := newFtpEnv(t)
	alice := e.client(t, e.alice)
	if _, err := alice.Get("/public/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing get: %v", err)
	}
	if err := alice.Delete("/home/alice/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing delete: %v", err)
	}
	if _, err := alice.Get("relative/path"); err == nil {
		t.Errorf("relative path accepted")
	}
	// Path traversal is cleaned server-side: /public/../home/bob/...
	// resolves to bob's home, which the policy denies Alice.
	if _, err := alice.Get("/public/../home/bob/secret.txt"); !errors.Is(err, ErrDenied) {
		t.Errorf("traversal slipped through policy: %v", err)
	}
}

func TestUnconfiguredCalloutFailsClosed(t *testing.T) {
	e := newFtpEnv(t)
	// Fresh server with an empty registry: everything is an authz
	// system failure, never a silent permit.
	ca, err := gsi.NewCA("/O=Grid/CN=CA2")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svc, err := ca.Issue("/O=Grid/CN=gridftp/x", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.Issue(aliceDN, gsi.KindUser)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(svc, trust, core.NewRegistry(), e.store)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	defer func() { srv.Close(); <-done }()
	c := NewClient(l.Addr().String(), user, trust)
	defer c.Close()
	_, err = c.Get("/public/readme.txt")
	if err == nil || errors.Is(err, ErrDenied) || errors.Is(err, ErrNotFound) {
		t.Errorf("unconfigured callout: %v", err)
	}
}

// TestCloseAbandonsInFlightCallout: a put held at its authorization
// callout does not hold shutdown. Close abandons the callout, the put
// fails, and the audit trail records the abandonment as an Error.
func TestCloseAbandonsInFlightCallout(t *testing.T) {
	e := newFtpEnv(t)
	gate := faultinject.NewGatePDP(&core.PolicyPDP{Policy: policy.MustParse(ftpPolicy, "site")})
	defer gate.Release() // frees a callout Close failed to abandon
	e.reg.Bind(CalloutGridFTP, gate)
	c := e.client(t, e.alice)

	putErr := make(chan error, 1)
	go func() { putErr <- c.Put("/home/alice/held.txt", []byte("held")) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if now, _ := gate.Held(); now == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the put never reached the gate")
		}
	}
	closed := make(chan struct{})
	go func() { e.server.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited on the callout held at the gate")
	}
	if err := <-putErr; err == nil {
		t.Error("a put whose callout was abandoned succeeded")
	}
	if _, ok := e.store.Get("/home/alice/held.txt"); ok {
		t.Error("the abandoned put was stored")
	}
	recs := e.log.Filter(func(r audit.Record) bool { return r.Action == OpPut })
	if len(recs) != 1 || recs[0].Effect != core.Error.String() || !strings.Contains(recs[0].Reason, "abandoned") {
		t.Fatalf("put records = %+v, want one Error naming the abandonment", recs)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Put("/a/b/c.txt", []byte("1"))
	s.Put("/a/b/d.txt", []byte("2"))
	s.Put("/a/e.txt", []byte("3"))
	if got := s.List("/a/b"); len(got) != 2 {
		t.Errorf("List = %v", got)
	}
	if got := s.List("/a"); len(got) != 1 || got[0] != "e.txt" {
		t.Errorf("List(/a) = %v", got)
	}
	if !s.Delete("/a/e.txt") || s.Delete("/a/e.txt") {
		t.Errorf("Delete semantics wrong")
	}
	// Stored data is isolated from caller mutation.
	buf := []byte("mut")
	s.Put("/m", buf)
	buf[0] = 'X'
	if got, _ := s.Get("/m"); string(got) != "mut" {
		t.Errorf("store aliased caller buffer")
	}
}

// TestShortKeyHelloDoesNotKillServer: a hello with a 3-byte public key
// under a signature check (ed25519.Verify panics on one) is a failed
// handshake, not the end of the data service.
func TestShortKeyHelloDoesNotKillServer(t *testing.T) {
	e := newFtpEnv(t)
	hellos, err := faultinject.ShortKeyHellos(e.bob)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parent", "leaf"} {
		conn, err := net.Dial("tcp", e.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hellos[name]); err != nil {
			t.Fatal(err)
		}
		// The server hangs up on a failed handshake; EOF is its answer.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Errorf("%s: server kept the connection: %v", name, err)
		}
		conn.Close()
	}
	if data, err := e.client(t, e.alice).Get("/public/readme.txt"); err != nil || string(data) != "welcome" {
		t.Fatalf("honest client after the short-key hellos: %q, %v", data, err)
	}
}

// TestStalledPeerIsCutOff: a peer that connects and sends nothing is
// held only for gsi.DefaultHandshakeTimeout, and an authenticated one is
// not held to it afterwards.
func TestStalledPeerIsCutOff(t *testing.T) {
	e := newFtpEnv(t)
	conn := faultinject.NewStalledConn()
	defer conn.Close()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.server.handle(context.Background(), conn)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler still waiting on a silent peer: no handshake deadline was set")
	}
	if got := conn.Deadline().Sub(start); got < gsi.DefaultHandshakeTimeout-time.Second || got > gsi.DefaultHandshakeTimeout+2*time.Second {
		t.Errorf("handshake bounded at %v, want gsi.DefaultHandshakeTimeout (%v)", got, gsi.DefaultHandshakeTimeout)
	}

	// The deadline covers the handshake only: a real connection that has
	// authenticated carries none into its request loop.
	cs, ss := net.Pipe()
	bounds := &deadlineRecorder{Conn: ss}
	served := make(chan struct{})
	go func() {
		defer close(served)
		e.server.handle(context.Background(), bounds)
	}()
	if _, _, err := gsi.NewAuthenticator(e.alice, e.trust).HandshakeClient(cs, "gridftp"); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	cs.Close()
	<-served
	if n := len(bounds.set); n != 2 || bounds.set[0].IsZero() || !bounds.set[1].IsZero() {
		t.Errorf("deadlines set = %v, want one bound then its removal", bounds.set)
	}
}

// TestClientHandshakeIsBounded: a server that accepts and never speaks
// fails the client's request at gsi.DefaultHandshakeTimeout instead of
// holding it, and every request queued behind it, forever.
func TestClientHandshakeIsBounded(t *testing.T) {
	e := newFtpEnv(t)
	stalled := faultinject.NewStalledConn()
	c := NewClient(e.addr, e.alice, e.trust)
	c.dial = func(string, string) (net.Conn, error) { return stalled, nil }
	done := make(chan error, 1)
	go func() { done <- c.Put("/home/alice/x", nil) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("put through a silent server succeeded")
		}
	case <-time.After(2 * time.Second):
		stalled.Close()
		t.Fatal("client still waiting on a silent server: no handshake deadline was set")
	}
}

// TestClientDialStartsNoGoroutine: a client's dial, handshake and first
// put run on the caller's goroutine alone. The role-aware client writes
// each leg and then reads the reply, so no leg is sent from a goroutine
// of its own; the peak is taken from inside every read and write.
func TestClientDialStartsNoGoroutine(t *testing.T) {
	e := newFtpEnv(t)
	cs, ss := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		e.server.handle(context.Background(), ss)
	}()
	var peak atomic.Int64
	c := NewClient(e.addr, e.alice, e.trust)
	c.dial = func(string, string) (net.Conn, error) { return peakConn{cs, &peak}, nil }
	base := runtime.NumGoroutine()
	if err := c.Put("/home/alice/dial.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-served
	if p := peak.Load(); p > int64(base) {
		t.Errorf("%d goroutines alive during the client's dial and put, %d before it: the client started %d", p, base, p-int64(base))
	}
}

// peakConn notes the highest goroutine count seen at any read or write.
type peakConn struct {
	net.Conn
	peak *atomic.Int64
}

func (c peakConn) note() {
	for n := int64(runtime.NumGoroutine()); ; {
		old := c.peak.Load()
		if n <= old || c.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

func (c peakConn) Read(p []byte) (int, error)  { c.note(); return c.Conn.Read(p) }
func (c peakConn) Write(p []byte) (int, error) { c.note(); return c.Conn.Write(p) }

// deadlineRecorder notes every SetDeadline on its way to the connection.
type deadlineRecorder struct {
	net.Conn
	set []time.Time
}

func (d *deadlineRecorder) SetDeadline(t time.Time) error {
	d.set = append(d.set, t)
	return d.Conn.SetDeadline(t)
}

// settled waits for the goroutine and descriptor counts to come back to
// what they were before a hostile peer connected.
func settled(t *testing.T, what string, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		f, err := faultinject.OpenFDs()
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s left something behind: %d goroutines (were %d), %d descriptors (were %d)", what, g, goroutines, f, fds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dial opens a connection to addr that the test closes.
func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestBrokenHandshakePeersLeaveNothingBehind: a peer whose hello stops
// mid-frame, one that hangs up halfway through its proof, and the peers
// that abuse resumption — a forged ticket, another server's ticket, a
// garbage ticket, a replayed confirm, a hang-up after the resume accept —
// each cost the server a refused or failed handshake and nothing else:
// no goroutine, no descriptor. The next client is served.
func TestBrokenHandshakePeersLeaveNothingBehind(t *testing.T) {
	e := newFtpEnv(t)
	if data, err := e.client(t, e.alice).Get("/public/readme.txt"); err != nil || string(data) != "welcome" {
		t.Fatalf("warm-up get: %q, %v", data, err)
	}
	ticket, secret, err := faultinject.Grant(dial(t, e.addr), e.alice)
	if err != nil {
		t.Fatal(err)
	}
	hello, confirm, err := faultinject.Resume(dial(t, e.addr), ticket, secret)
	if err != nil {
		t.Fatal(err)
	}
	other := *e
	stopOther := other.start(t, "127.0.0.1:0", nil)
	foreign, _, err := faultinject.Grant(dial(t, other.addr), e.alice)
	if err != nil {
		t.Fatal(err)
	}
	truncated, err := faultinject.TruncatedHello(e.bob)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(ticket []byte) func(net.Conn) error {
		return func(conn net.Conn) error {
			fellBack, err := faultinject.PresentTicket(conn, ticket)
			if err == nil && !fellBack {
				err = errors.New("the ticket was not refused with a fallback to a full handshake")
			}
			return err
		}
	}
	plays := map[string]func(net.Conn) error{
		"truncated hello": func(conn net.Conn) error {
			defer conn.Close()
			_, err := conn.Write(truncated)
			return err
		},
		"mid-proof hang-up":       func(conn net.Conn) error { return faultinject.HangUpMidProof(conn, e.bob) },
		"forged ticket":           refused(faultinject.ForgedTicket(aliceDN)),
		"another server's ticket": refused(foreign),
		"garbage ticket":          refused([]byte("\x00not a ticket")),
		"resume-accept hang-up":   func(conn net.Conn) error { return faultinject.HangUpAfterResumeAccept(conn, ticket) },
		"replayed resume confirm": func(conn net.Conn) error {
			defer conn.Close()
			if _, err := conn.Write(hello); err != nil {
				return err
			}
			br := bufio.NewReader(conn)
			if _, err := br.ReadBytes('\n'); err != nil { // the accept, under a fresh nonce
				return err
			}
			if _, err := conn.Write(confirm); err != nil {
				return err
			}
			// The server hangs up on a failed proof; EOF is its answer.
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.Copy(io.Discard, br); err != nil {
				return fmt.Errorf("the server kept the connection of a replayed confirm: %w", err)
			}
			return nil
		},
	}
	stopOther()
	goroutines := runtime.NumGoroutine()
	fds, err := faultinject.OpenFDs()
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	for name, play := range plays {
		conn, err := net.Dial("tcp", e.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := play(conn); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		settled(t, name, goroutines, fds)
	}
	if data, err := e.client(t, e.alice).Get("/public/readme.txt"); err != nil || string(data) != "welcome" {
		t.Fatalf("honest client after the broken handshakes: %q, %v", data, err)
	}
}

// authenticated dials the server and completes alice's handshake by hand.
func (e *ftpEnv) authenticated(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_, br, err := gsi.NewAuthenticator(e.alice, e.trust).HandshakeClient(conn, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn, br
}

// TestUnknownOpIsRefusedBeforeCallout: an op the service cannot serve
// is a bad request, answered before the callout — no PDP runs and no
// audit record is appended, so a peer can neither write an action name
// of its choosing into the trail nor drive a PDP bound to the callout.
func TestUnknownOpIsRefusedBeforeCallout(t *testing.T) {
	e := newFtpEnv(t)
	var calls atomic.Int32
	e.reg.Bind(CalloutGridFTP, core.PDPFunc{ID: "counter", Fn: func(context.Context, *core.Request) core.Decision {
		calls.Add(1)
		return core.PermitDecision("counter", "ok")
	}})
	conn, br := e.authenticated(t)
	if _, err := io.WriteString(conn, `{"op":"rename","path":"/public/readme.txt"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := readResponse(br)
	if err != nil || resp.OK || resp.Code != "bad-request" || resp.Message != "unknown op rename" {
		t.Fatalf("response to an unknown op = %+v, %v; want a bad-request refusal", resp, err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("PDP ran %d times for an unknown op", n)
	}
	if recs := e.log.Records(); len(recs) != 0 {
		t.Errorf("unknown op left audit records: %+v", recs)
	}
}

// TestOversizeFrameIsRefused: an authenticated peer cannot grow the
// server's memory with a frame that never ends. One read buffer over
// MaxFrameSize is answered with an error response and a hang-up; a peer
// that goes on streaming is cut off after about one frame's worth, with
// the server's heap bounded by a few frames, and the service carries on.
func TestOversizeFrameIsRefused(t *testing.T) {
	e := newFtpEnv(t)
	const prefix = `{"op":"put","path":"/home/alice/big","data":"`

	// The reader notices at the granularity of its 4 KiB buffer, and a
	// peer that stops there has been read to the last byte, so the
	// server's hang-up is a clean one and its answer arrives.
	const over = MaxFrameSize + 4096
	conn, br := e.authenticated(t)
	if n, err := faultinject.Flood(conn, prefix, over); err != nil || n != over {
		t.Fatalf("flood of one frame and a buffer: wrote %d, %v", n, err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := readResponse(br)
	if err != nil || resp.OK || resp.Code != "bad-request" || !strings.Contains(resp.Message, "exceeds") {
		t.Fatalf("response to an oversize frame = %+v, %v; want a bad-request refusal", resp, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("after the refusal: %v, want the connection closed", err)
	}

	conn, _ = e.authenticated(t)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var peak atomic.Uint64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	const endless = 32 * MaxFrameSize
	_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	written, err := faultinject.Flood(conn, prefix, endless)
	close(stop)
	<-sampled
	if err == nil || written >= endless {
		t.Errorf("the server took all %d bytes of a frame without end (error %v)", written, err)
	}
	if grown := int64(peak.Load()) - int64(before.HeapAlloc); grown > 6*MaxFrameSize {
		t.Errorf("heap grew by %d MiB while the peer streamed %d MiB; want it bounded by a few frames of %d MiB",
			grown>>20, written>>20, MaxFrameSize>>20)
	}
	if data, err := e.client(t, e.alice).Get("/public/readme.txt"); err != nil || string(data) != "welcome" {
		t.Fatalf("honest client after the flood: %q, %v", data, err)
	}
}

// TestReframedClientIsServedAlike: a client whose every frame, handshake
// and request, reaches the server spelled as no encoder of ours spells
// it (members reordered, whitespace everywhere — so each one is decoded
// by encoding/json, not the fast parsers) gets the answers and leaves
// the audit records of a client whose frames take the fast path.
func TestReframedClientIsServedAlike(t *testing.T) {
	e := newFtpEnv(t)
	relay, err := faultinject.NewReframer(e.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	session := func(addr string) (answers, records []string) {
		first := e.log.Len()
		c := NewClient(addr, e.alice, e.trust)
		defer c.Close()
		answer := func(v any, err error) { answers = append(answers, fmt.Sprintf("%q %v", v, err)) }
		answer(nil, c.Put("/home/alice/re <&> framed.txt", []byte("spelled \"otherwise\"\n")))
		answer(c.Get("/home/alice/re <&> framed.txt"))
		answer(c.List("/home/alice"))
		answer(c.Get("/home/bob/secret.txt"))
		answer(nil, c.Put("/home/alice/big", bytes.Repeat([]byte("a"), 2<<20)))
		answer(nil, c.Delete("/home/alice/re <&> framed.txt"))
		answer(c.Get("/home/alice/re <&> framed.txt"))
		for _, rec := range e.log.Records()[first:] {
			records = append(records, strings.Join([]string{rec.Effect, rec.Action, string(rec.Subject), rec.PDP, rec.Source, rec.Reason}, "|"))
		}
		return answers, records
	}
	fastAnswers, fastRecords := session(e.addr)
	before := relay.Frames()
	slowAnswers, slowRecords := session(relay.Addr)
	if got := relay.Frames() - before; got != 2+7 {
		t.Errorf("the relay re-spelled %d frames, want the hello, the proof and seven requests", got)
	}
	if !reflect.DeepEqual(fastAnswers, slowAnswers) {
		t.Errorf("answers differ:\n fast path %v\n fallback  %v", fastAnswers, slowAnswers)
	}
	if len(fastRecords) != 7 || !reflect.DeepEqual(fastRecords, slowRecords) {
		t.Errorf("audit records differ:\n fast path %v\n fallback  %v", fastRecords, slowRecords)
	}
}

// Delete removes a file.
func (c *Client) Delete(p string) error {
	resp, err := c.roundTrip(&request{Op: OpDelete, Path: p})
	if err != nil {
		return err
	}
	if !resp.OK {
		return respError(resp)
	}
	return nil
}

// List names the entries under a directory.
func (c *Client) List(dir string) ([]string, error) {
	resp, err := c.roundTrip(&request{Op: OpList, Path: dir})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, respError(resp)
	}
	return resp.Names, nil
}
