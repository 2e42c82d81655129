package gsi

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The leg-ordering interop matrix. HandshakeClient writes each leg and
// then reads, HandshakeAccept reads and then writes, and the symmetric
// Handshake sends from a goroutine while it reads. Every pairing of
// them must complete on a transport that buffers nothing (net.Pipe) as
// on one that does (TCP), in every scenario, with the peers the pairing
// produced before the role-aware pair stopped sending concurrently —
// and that pair must get there without starting a goroutine.

const appFeature = "app/1"

// interopSide is one end of a pairing.
type interopSide struct {
	name      string
	roleAware bool
}

var interopSides = []interopSide{{"role-aware", true}, {"symmetric", false}}

// peakConn notes the highest goroutine count seen from inside the
// handshake, at every read and write.
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

// interopEnv is one cell's fabric.
type interopEnv struct {
	trust *TrustStore
	gk    *Credential
	l     net.Listener // nil on net.Pipe
}

// transport returns the two ends of a fresh connection.
func (e *interopEnv) transport(t *testing.T) (client, server net.Conn) {
	t.Helper()
	if e.l == nil {
		return net.Pipe()
	}
	client, err := net.Dial("tcp", e.l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = e.l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

// acceptor builds the accepting side; a role-aware one issues tickets.
func (e *interopEnv) acceptor(t *testing.T, side interopSide) *Authenticator {
	t.Helper()
	opts := []AuthOption{WithFeatures(appFeature)}
	if side.roleAware {
		issuer, err := NewTicketIssuer(0)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithTicketIssuer(issuer))
	}
	return NewAuthenticator(e.gk, e.trust, opts...)
}

// connect runs one handshake under a two-second deadline and returns
// both views of it and the most goroutines alive at any read or write.
func (e *interopEnv) connect(t *testing.T, clientSide, acceptSide interopSide, client, acceptor *Authenticator) (cp, sp *Peer, peak int) {
	t.Helper()
	cc, sc := e.transport(t)
	defer cc.Close()
	defer sc.Close()
	deadline := time.Now().Add(2 * time.Second)
	_ = cc.SetDeadline(deadline)
	_ = sc.SetDeadline(deadline)
	var seen atomic.Int64
	run := func(a *Authenticator, roleAware, accept bool, conn net.Conn) (*Peer, error) {
		var p *Peer
		var err error
		switch rw := (peakConn{conn, &seen}); {
		case !roleAware:
			p, _, err = a.Handshake(rw)
		case accept:
			p, _, err = a.HandshakeAccept(rw)
		default:
			p, _, err = a.HandshakeClient(rw, "interop")
		}
		if err != nil {
			conn.Close() // as a real endpoint does; it unblocks the peer
		}
		return p, err
	}
	type result struct {
		p   *Peer
		err error
	}
	accepted := make(chan result, 1)
	go func() {
		p, err := run(acceptor, acceptSide.roleAware, true, sc)
		accepted <- result{p, err}
	}()
	cp, cerr := run(client, clientSide.roleAware, false, cc)
	sr := <-accepted
	if cerr != nil || sr.err != nil {
		t.Fatalf("handshake did not complete: client %v, acceptor %v", cerr, sr.err)
	}
	return cp, sr.p, int(seen.Load())
}

// describe renders every field of a peer, the presented chain by its
// certificates' subjects and signatures (a decoded certificate's times
// are the sender's without the monotonic reading, so the structs
// themselves do not compare).
func describe(p *Peer) string {
	s := fmt.Sprintf("identity=%s subject=%s limited=%v resumed=%v features=%q assertions=%d",
		p.Identity, p.Subject, p.Limited, p.Resumed, p.Features, len(p.Assertions))
	if p.Credential == nil {
		return s + " credential=none"
	}
	for _, c := range p.Credential.Chain {
		s += fmt.Sprintf(" cert=%s/%x", c.Subject, c.Signature[:4])
	}
	if p.Credential.Key != nil {
		s += " WITH-PRIVATE-KEY"
	}
	return s
}

func TestLegOrderInteropMatrix(t *testing.T) {
	ca := newTestCA(t)
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := Delegate(kate, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := ca.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for _, clientSide := range interopSides {
		for _, acceptSide := range interopSides {
			for _, transport := range []string{"pipe", "tcp"} {
				for _, scenario := range []string{"full", "resumed", "rejected-resume", "no-resume-feature"} {
					name := fmt.Sprintf("%s-client/%s-acceptor/%s/%s", clientSide.name, acceptSide.name, transport, scenario)
					t.Run(name, func(t *testing.T) {
						e := &interopEnv{trust: NewTrustStore(ca.Certificate()), gk: gk}
						if transport == "tcp" {
							e.l = l
						}
						sessions := NewSessionCache()
						clientOpts := []AuthOption{WithFeatures(appFeature)}
						if clientSide.roleAware && scenario != "no-resume-feature" {
							clientOpts = append(clientOpts, WithSessionCache(sessions))
						}
						client := NewAuthenticator(proxy, e.trust, clientOpts...)
						acceptor := e.acceptor(t, acceptSide)

						// What each side announces, and so what the other reports.
						clientFeatures, acceptFeatures := []string{appFeature}, []string{appFeature}
						resumable := clientSide.roleAware && scenario != "no-resume-feature"
						if resumable {
							clientFeatures = []string{FeatureResume, appFeature}
						}
						if acceptSide.roleAware {
							acceptFeatures = []string{FeatureResume, appFeature}
						}

						wantResumed := false
						switch scenario {
						case "resumed":
							e.connect(t, clientSide, acceptSide, client, acceptor)
							wantResumed = resumable && acceptSide.roleAware
						case "rejected-resume":
							// The ticket (if any was granted) is another
							// issuer's: the acceptor falls back to a full
							// handshake on the same connection.
							e.connect(t, clientSide, acceptSide, client, acceptor)
							acceptor = e.acceptor(t, acceptSide)
						}
						granted := resumable && acceptSide.roleAware
						if had := sessions.Len() == 1; scenario != "full" && scenario != "no-resume-feature" && had != granted {
							t.Fatalf("after the first connection the client holds a session: %v, want %v", had, granted)
						}

						base := runtime.NumGoroutine()
						cp, sp, peak := e.connect(t, clientSide, acceptSide, client, acceptor)

						wantClient := &Peer{Identity: gkDN, Subject: gkDN, Features: acceptFeatures, Resumed: wantResumed}
						wantServer := &Peer{Identity: kateDN, Subject: proxy.Subject(), Features: clientFeatures, Resumed: wantResumed}
						if !wantResumed {
							wantClient.Credential = &Credential{Chain: gk.Chain}
							wantServer.Credential = &Credential{Chain: proxy.Chain}
						}
						if got, want := describe(cp), describe(wantClient); got != want {
							t.Errorf("client sees\n %s\nwant\n %s", got, want)
						}
						if got, want := describe(sp), describe(wantServer); got != want {
							t.Errorf("acceptor sees\n %s\nwant\n %s", got, want)
						}
						if had := sessions.Len() == 1; had != granted {
							t.Errorf("client holds a session afterwards: %v, want %v", had, granted)
						}
						// The test's own acceptor goroutine is the one allowed
						// beyond what ran before the handshake.
						if clientSide.roleAware && acceptSide.roleAware && peak > base+1 {
							t.Errorf("%d goroutines alive during a role-aware handshake, %d before it: the pair started %d of its own",
								peak, base, peak-base-1)
						}
					})
				}
			}
		}
	}
}
