package gsi

import (
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

const (
	caDN   = DN("/O=Grid/CN=Globus Test CA")
	kateDN = DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
	boDN   = DN("/O=Grid/O=Globus/OU=uh.edu/CN=Bo Liu")
	gkDN   = DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=gatekeeper/fusion.anl.gov")
)

func newTestCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA(caDN)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestParseDN(t *testing.T) {
	rdns, err := ParseDN(string(kateDN))
	if err != nil {
		t.Fatal(err)
	}
	if len(rdns) != 4 {
		t.Fatalf("got %d RDNs, want 4", len(rdns))
	}
	if rdns[3].Type != "CN" || rdns[3].Value != "Kate Keahey" {
		t.Errorf("last RDN = %+v", rdns[3])
	}
	for _, bad := range []string{"", "no-slash", "/", "/O", "/=v", "/O=Grid//CN=x"} {
		if _, err := ParseDN(bad); err == nil {
			t.Errorf("ParseDN(%q): expected error", bad)
		}
	}
}

func TestDNHelpers(t *testing.T) {
	if kateDN.CN() != "Kate Keahey" {
		t.Errorf("CN = %q", kateDN.CN())
	}
	if !kateDN.HasPrefix("/O=Grid/O=Globus/OU=mcs.anl.gov") {
		t.Errorf("HasPrefix failed")
	}
	if boDN.HasPrefix("/O=Grid/O=Globus/OU=mcs.anl.gov") {
		t.Errorf("HasPrefix false positive")
	}
	p := kateDN.WithCN("proxy").WithCN("proxy")
	if p.Base() != kateDN {
		t.Errorf("Base(%s) = %s", p, p.Base())
	}
	lp := kateDN.WithCN("proxy").WithCN("limited proxy")
	if lp.Base() != kateDN {
		t.Errorf("Base(%s) = %s", lp, lp.Base())
	}
}

func TestIssueAndVerify(t *testing.T) {
	ca := newTestCA(t)
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore(ca.Certificate())
	id, err := trust.Verify(kate, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if id != kateDN {
		t.Errorf("identity = %s", id)
	}
	if kate.Identity() != kateDN {
		t.Errorf("Identity = %s", kate.Identity())
	}
}

func TestVerifyRejectsUntrustedCA(t *testing.T) {
	ca := newTestCA(t)
	rogue, err := NewCA("/O=Rogue/CN=Evil CA")
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := rogue.Issue(kateDN, KindUser) // impersonation attempt
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore(ca.Certificate())
	if _, err := trust.Verify(mallory, time.Now()); !errors.Is(err, ErrUntrusted) {
		t.Errorf("Verify = %v, want ErrUntrusted", err)
	}
}

func TestVerifyRejectsExpired(t *testing.T) {
	past := time.Now().Add(-48 * time.Hour)
	ca, err := NewCA(caDN, WithClock(func() time.Time { return past }), WithTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore(ca.Certificate())
	if _, err := trust.Verify(kate, time.Now()); !errors.Is(err, ErrExpired) {
		t.Errorf("Verify = %v, want ErrExpired", err)
	}
	if _, err := trust.Verify(kate, past.Add(time.Minute)); err != nil {
		t.Errorf("Verify inside window = %v", err)
	}
}

func TestVerifyRejectsTamperedCert(t *testing.T) {
	ca := newTestCA(t)
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	kate.Chain[0].Subject = boDN // tamper with the signed subject
	trust := NewTrustStore(ca.Certificate())
	if _, err := trust.Verify(kate, time.Now()); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Verify = %v, want ErrBadSignature", err)
	}
}

func TestDelegation(t *testing.T) {
	ca := newTestCA(t)
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := Delegate(kate, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore(ca.Certificate())
	id, err := trust.Verify(proxy, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if id != kateDN {
		t.Errorf("proxy identity = %s, want %s", id, kateDN)
	}
	// Second-level delegation.
	proxy2, err := Delegate(proxy, time.Hour, true)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := trust.Verify(proxy2, time.Now()); err != nil || id != kateDN {
		t.Fatalf("proxy2 verify = %s, %v", id, err)
	}
	if proxy2.Leaf().Kind != KindLimited {
		t.Errorf("kind = %s, want limited", proxy2.Leaf().Kind)
	}
	// Limited proxies cannot delegate further.
	if _, err := Delegate(proxy2, time.Hour, false); !errors.Is(err, ErrBadProxy) {
		t.Errorf("Delegate(limited) = %v, want ErrBadProxy", err)
	}
}

func TestProxyCannotOutliveParent(t *testing.T) {
	ca, err := NewCA(caDN, WithTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := Delegate(kate, 24*time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Leaf().NotAfter.After(kate.Leaf().NotAfter) {
		t.Errorf("proxy outlives its signer")
	}
}

func TestForgedProxyRejected(t *testing.T) {
	ca := newTestCA(t)
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := ca.Issue(boDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	// Bo forges a "proxy" naming Kate's DN but signed with Bo's key.
	forged, err := Delegate(bo, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	forged.Chain[0].Subject = kateDN.WithCN("proxy")
	forged.Chain[0].Issuer = kateDN
	forged.Chain = []*Certificate{forged.Chain[0], kate.Leaf()}
	trust := NewTrustStore(ca.Certificate())
	if _, err := trust.Verify(forged, time.Now()); err == nil {
		t.Errorf("forged proxy verified")
	}
}

func TestAssertionSignVerify(t *testing.T) {
	ca := newTestCA(t)
	vo, err := ca.Issue("/O=Grid/CN=NFC VO", KindService)
	if err != nil {
		t.Fatal(err)
	}
	a := &Assertion{
		VO:        "NFC",
		Holder:    kateDN,
		Groups:    []string{"analysis"},
		Roles:     []string{"admin"},
		Jobtags:   []string{"NFC"},
		NotBefore: time.Now().Add(-time.Minute),
		NotAfter:  time.Now().Add(time.Hour),
	}
	if err := SignAssertion(a, vo); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssertion(a, vo.Leaf(), kateDN, time.Now()); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(a.Roles, "admin") || slices.Contains(a.Roles, "developer") {
		t.Errorf("roles wrong")
	}
	if !slices.Contains(a.Groups, "analysis") || slices.Contains(a.Groups, "dev") {
		t.Errorf("groups wrong")
	}
	if !a.AllowsJobtag("NFC") || a.AllowsJobtag("ADS") {
		t.Errorf("AllowsJobtag wrong")
	}

	if err := VerifyAssertion(a, vo.Leaf(), boDN, time.Now()); !errors.Is(err, ErrWrongHolder) {
		t.Errorf("wrong holder accepted: %v", err)
	}
	if err := VerifyAssertion(a, vo.Leaf(), kateDN, time.Now().Add(2*time.Hour)); !errors.Is(err, ErrAssertionExpired) {
		t.Errorf("expired accepted: %v", err)
	}
	a.Groups = append(a.Groups, "admin") // tamper
	if err := VerifyAssertion(a, vo.Leaf(), kateDN, time.Now()); !errors.Is(err, ErrAssertionForged) {
		t.Errorf("tampered accepted: %v", err)
	}
}

// runHandshake authenticates a, as the client, to b, as the acceptor.
func runHandshake(t *testing.T, a, b *Authenticator) (*Peer, *Peer, error, error) {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	type res struct {
		p   *Peer
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, _, err := a.HandshakeClient(c1, "gk")
		if err != nil {
			// Real endpoints close the transport when authentication
			// fails (the gatekeeper's deferred conn.Close), which is
			// what unblocks the peer; model that here.
			c1.Close()
		}
		ch <- res{p, err}
	}()
	pb, _, errB := b.HandshakeAccept(c2)
	if errB != nil {
		c2.Close()
	}
	ra := <-ch
	return ra.p, pb, ra.err, errB
}

func TestMutualAuthentication(t *testing.T) {
	ca := newTestCA(t)
	trust := NewTrustStore(ca.Certificate())
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := ca.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := Delegate(kate, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}

	userAuth := NewAuthenticator(proxy, trust)
	gkAuth := NewAuthenticator(gk, trust)
	peerAtUser, peerAtGK, errA, errB := runHandshake(t, userAuth, gkAuth)
	if errA != nil || errB != nil {
		t.Fatalf("handshake: %v / %v", errA, errB)
	}
	if peerAtUser.Identity != gkDN {
		t.Errorf("user sees peer %s", peerAtUser.Identity)
	}
	if peerAtGK.Identity != kateDN {
		t.Errorf("gatekeeper sees peer %s", peerAtGK.Identity)
	}
	if peerAtGK.Subject != kateDN.WithCN("proxy") {
		t.Errorf("gatekeeper sees subject %s", peerAtGK.Subject)
	}
	if peerAtGK.Limited {
		t.Errorf("full proxy reported limited")
	}
}

func TestHandshakeRejectsUntrusted(t *testing.T) {
	ca := newTestCA(t)
	rogueCA, err := NewCA("/O=Rogue/CN=Evil CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore(ca.Certificate())
	rogue, err := rogueCA.Issue(boDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := ca.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	rogueTrust := NewTrustStore(ca.Certificate(), rogueCA.Certificate())
	userAuth := NewAuthenticator(rogue, rogueTrust)
	gkAuth := NewAuthenticator(gk, trust)
	_, _, _, errGK := runHandshake(t, userAuth, gkAuth)
	if !errors.Is(errGK, ErrHandshakeFailed) {
		t.Errorf("gatekeeper accepted rogue peer: %v", errGK)
	}
}

func TestHandshakeCarriesAssertions(t *testing.T) {
	ca := newTestCA(t)
	trust := NewTrustStore(ca.Certificate())
	vo, err := ca.Issue("/O=Grid/CN=NFC VO", KindService)
	if err != nil {
		t.Fatal(err)
	}
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := ca.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	a := &Assertion{
		VO: "NFC", Holder: kateDN, Roles: []string{"admin"},
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignAssertion(a, vo); err != nil {
		t.Fatal(err)
	}
	userAuth := NewAuthenticator(kate, trust, WithAssertions(a))
	gkAuth := NewAuthenticator(gk, trust, WithVOCert(vo.Leaf()))
	_, peerAtGK, errA, errB := runHandshake(t, userAuth, gkAuth)
	if errA != nil || errB != nil {
		t.Fatalf("handshake: %v / %v", errA, errB)
	}
	if len(peerAtGK.Assertions) != 1 || !slices.Contains(peerAtGK.Assertions[0].Roles, "admin") {
		t.Errorf("assertions not carried: %+v", peerAtGK.Assertions)
	}

	// An assertion from a VO the gatekeeper does not know is ignored.
	gkAuthNoVO := NewAuthenticator(gk, trust)
	_, peer2, errA, errB := runHandshake(t, userAuth, gkAuthNoVO)
	if errA != nil || errB != nil {
		t.Fatalf("handshake: %v / %v", errA, errB)
	}
	if len(peer2.Assertions) != 0 {
		t.Errorf("unknown-VO assertion accepted")
	}
}

func TestHandshakeRejectsStolenAssertion(t *testing.T) {
	ca := newTestCA(t)
	trust := NewTrustStore(ca.Certificate())
	vo, err := ca.Issue("/O=Grid/CN=NFC VO", KindService)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := ca.Issue(boDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := ca.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	// Kate's assertion presented by Bo must be rejected.
	a := &Assertion{
		VO: "NFC", Holder: kateDN, Roles: []string{"admin"},
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignAssertion(a, vo); err != nil {
		t.Fatal(err)
	}
	boAuth := NewAuthenticator(bo, trust, WithAssertions(a))
	gkAuth := NewAuthenticator(gk, trust, WithVOCert(vo.Leaf()))
	_, _, _, errGK := runHandshake(t, boAuth, gkAuth)
	if !errors.Is(errGK, ErrHandshakeFailed) {
		t.Errorf("stolen assertion accepted: %v", errGK)
	}
}

// The returned reader must deliver bytes that arrived hard on the heels
// of the handshake (the next protocol message may share a TCP segment
// with the final handshake leg).
func TestHandshakeReaderKeepsPipelinedBytes(t *testing.T) {
	ca := newTestCA(t)
	trust := NewTrustStore(ca.Certificate())
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := ca.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	errCh := make(chan error, 1)
	go func() {
		_, _, err := NewAuthenticator(kate, trust).HandshakeClient(c1, "gk")
		if err != nil {
			errCh <- err
			return
		}
		// Immediately pipeline an application message.
		_, werr := c1.Write([]byte("application-message\n"))
		errCh <- werr
	}()
	_, br, err := NewAuthenticator(gk, trust).HandshakeAccept(c2)
	if err != nil {
		t.Fatal(err)
	}
	// Read before joining the writer: net.Pipe writes block until read.
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != "application-message\n" {
		t.Errorf("pipelined message = %q", line)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestCredentialPublicHasNoKey(t *testing.T) {
	ca := newTestCA(t)
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	pub := kate.Public()
	if pub.Key != nil {
		t.Fatalf("Public() leaked private key")
	}
	if _, err := pub.Sign([]byte("x")); err == nil {
		t.Errorf("Sign without key should fail")
	}
}

// Property: Base is idempotent and never returns a DN ending in a proxy CN.
func TestQuickBaseIdempotent(t *testing.T) {
	f := func(nProxies uint8, limited bool) bool {
		d := kateDN
		for i := 0; i < int(nProxies%6); i++ {
			if limited && i == int(nProxies%6)-1 {
				d = d.WithCN("limited proxy")
			} else {
				d = d.WithCN("proxy")
			}
		}
		b := d.Base()
		return b == kateDN && b.Base() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: signatures fail closed — flipping any byte of the message
// breaks verification.
func TestQuickSignatureTamperDetection(t *testing.T) {
	ca := newTestCA(t)
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("authorize: cancel job 42")
	sig, err := kate.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(idx uint8, bit uint8) bool {
		m := append([]byte(nil), msg...)
		m[int(idx)%len(m)] ^= 1 << (bit % 8)
		return kate.VerifyBy(m, sig) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// boundRecorder notes every SetDeadline on its way to the connection.
type boundRecorder struct {
	net.Conn
	mu  sync.Mutex
	set []time.Time
}

func (r *boundRecorder) SetDeadline(t time.Time) error {
	r.mu.Lock()
	r.set = append(r.set, t)
	r.mu.Unlock()
	return r.Conn.SetDeadline(t)
}

// TestHandshakeBoundsItself: both roles bound the handshake by
// DefaultHandshakeTimeout and lift the bound once it succeeds, so a
// caller needs no deadline of its own and carries none afterwards.
func TestHandshakeBoundsItself(t *testing.T) {
	ca := newTestCA(t)
	trust := NewTrustStore(ca.Certificate())
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := ca.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	client, acceptor := &boundRecorder{Conn: c1}, &boundRecorder{Conn: c2}
	start := time.Now()
	accepted := make(chan error, 1)
	go func() {
		_, _, err := NewAuthenticator(gk, trust).HandshakeAccept(acceptor)
		accepted <- err
	}()
	if _, _, err := NewAuthenticator(kate, trust).HandshakeClient(client, "gk"); err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := <-accepted; err != nil {
		t.Fatalf("acceptor: %v", err)
	}
	for name, r := range map[string]*boundRecorder{"client": client, "acceptor": acceptor} {
		if len(r.set) != 2 || !r.set[1].IsZero() {
			t.Fatalf("%s: deadlines set = %v, want one bound then its removal", name, r.set)
		}
		if got := r.set[0].Sub(start); got < DefaultHandshakeTimeout || got > DefaultHandshakeTimeout+2*time.Second {
			t.Errorf("%s: handshake bounded at %v, want DefaultHandshakeTimeout (%v)", name, got, DefaultHandshakeTimeout)
		}
	}
}
