package gridftp

import (
	"bufio"
	"bytes"
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

	srv, err := NewServer(svcCred, trust, reg, store)
	if err != nil {
		t.Fatal(err)
	}
	log := audit.NewLog(64)
	srv.SetAudit(log)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return &ftpEnv{store: store, addr: l.Addr().String(), trust: trust, alice: alice, bob: bob, server: srv, log: log}
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
		e.server.handle(conn)
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
		e.server.handle(bounds)
	}()
	if _, _, err := gsi.NewAuthenticator(e.alice, e.trust).Handshake(cs); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	cs.Close()
	<-served
	if n := len(bounds.set); n != 2 || bounds.set[0].IsZero() || !bounds.set[1].IsZero() {
		t.Errorf("deadlines set = %v, want one bound then its removal", bounds.set)
	}
}

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

// TestBrokenHandshakePeersLeaveNothingBehind: a peer whose hello stops
// mid-frame and one that hangs up halfway through its proof each cost
// the server a failed handshake and nothing else — no goroutine, no
// descriptor — and the next client is served.
func TestBrokenHandshakePeersLeaveNothingBehind(t *testing.T) {
	e := newFtpEnv(t)
	if data, err := e.client(t, e.alice).Get("/public/readme.txt"); err != nil || string(data) != "welcome" {
		t.Fatalf("warm-up get: %q, %v", data, err)
	}
	goroutines := runtime.NumGoroutine()
	fds, err := faultinject.OpenFDs()
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	truncated, err := faultinject.TruncatedHello(e.bob)
	if err != nil {
		t.Fatal(err)
	}
	for name, play := range map[string]func(net.Conn) error{
		"truncated hello": func(conn net.Conn) error {
			defer conn.Close()
			_, err := conn.Write(truncated)
			return err
		},
		"mid-proof hang-up": func(conn net.Conn) error { return faultinject.HangUpMidProof(conn, e.bob) },
	} {
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
