package gsi

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"gridauth/internal/jsonwire"
	"gridauth/internal/obs"
)

// sessionTarget is the cache key used by the client side in these tests
// (in production it is the dial address).
const sessionTarget = "gatekeeper.test:7512"

// runClientAccept drives one HandshakeClient / HandshakeAccept exchange
// over a synchronous pipe, closing the failing side so the peer
// unblocks (the way real endpoints' deferred conn.Close does).
func runClientAccept(t *testing.T, client, server *Authenticator) (clientPeer, serverPeer *Peer, clientErr, serverErr error) {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serverPeer, _, serverErr = server.HandshakeAccept(c2)
		if serverErr != nil {
			c2.Close()
		}
	}()
	clientPeer, _, clientErr = client.HandshakeClient(c1, sessionTarget)
	if clientErr != nil {
		c1.Close()
	}
	<-done
	return
}

// sessionEnv is a resumption-capable client/acceptor pair sharing one
// trust fabric.
type sessionEnv struct {
	ca     *CA
	trust  *TrustStore
	proxy  *Credential
	gkCred *Credential
	issuer *TicketIssuer
	cache  *SessionCache
	client *Authenticator
	server *Authenticator
}

func newSessionEnv(t *testing.T, ticketLifetime time.Duration, clientOpts, serverOpts []AuthOption) *sessionEnv {
	t.Helper()
	ca := newTestCA(t)
	trust := NewTrustStore(ca.Certificate())
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := Delegate(kate, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	gkCred, err := ca.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	issuer, err := NewTicketIssuer(ticketLifetime)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSessionCache()
	e := &sessionEnv{
		ca: ca, trust: trust, proxy: proxy, gkCred: gkCred,
		issuer: issuer, cache: cache,
	}
	e.client = NewAuthenticator(proxy, trust, append([]AuthOption{WithSessionCache(cache)}, clientOpts...)...)
	e.server = NewAuthenticator(gkCred, trust, append([]AuthOption{WithTicketIssuer(issuer)}, serverOpts...)...)
	return e
}

// session is the client's cached session with the acceptor.
func (e *sessionEnv) session() *Session {
	return e.cache.sessions[sessionKey{sessionTarget, e.proxy}]
}

func TestSessionResumptionRoundTrip(t *testing.T) {
	e := newSessionEnv(t, 0, nil, nil)

	// First connection: full handshake, ticket granted and cached.
	cp, sp, cerr, serr := runClientAccept(t, e.client, e.server)
	if cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}
	if cp.Resumed || sp.Resumed {
		t.Fatalf("first handshake reported resumed (client=%v server=%v)", cp.Resumed, sp.Resumed)
	}
	if e.cache.Len() != 1 {
		t.Fatalf("cache holds %d sessions after grant, want 1", e.cache.Len())
	}

	// Second connection: one-round-trip resumption on both sides.
	cp2, sp2, cerr, serr := runClientAccept(t, e.client, e.server)
	if cerr != nil || serr != nil {
		t.Fatalf("resumed handshake: client=%v server=%v", cerr, serr)
	}
	if !cp2.Resumed || !sp2.Resumed {
		t.Fatalf("resumption did not happen (client=%v server=%v)", cp2.Resumed, sp2.Resumed)
	}
	if sp2.Identity != kateDN {
		t.Errorf("resumed identity = %s, want %s", sp2.Identity, kateDN)
	}
	if sp2.Subject != e.proxy.Subject() {
		t.Errorf("resumed subject = %s, want %s", sp2.Subject, e.proxy.Subject())
	}
	if sp2.Limited {
		t.Errorf("resumed session reports a limited proxy")
	}
	if sp2.Credential != nil {
		t.Errorf("resumed peer carries a credential; the chain is not re-presented")
	}
	if cp2.Identity != gkDN {
		t.Errorf("client sees acceptor identity %s, want %s", cp2.Identity, gkDN)
	}
}

func TestResumptionCarriesFeaturesAndAssertions(t *testing.T) {
	voCred, err := newTestCA(t).Issue("/O=Grid/CN=NFC VO", KindService)
	if err != nil {
		t.Fatal(err)
	}
	as := &Assertion{
		VO: "NFC", Holder: kateDN, Jobtags: []string{"NFC"},
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignAssertion(as, voCred); err != nil {
		t.Fatal(err)
	}
	// An assertion from a VO the acceptor does not know: dropped on the
	// full handshake AND on resumption, never fatal.
	strangerCred, err := newTestCA(t).Issue("/O=Grid/CN=Stranger VO", KindService)
	if err != nil {
		t.Fatal(err)
	}
	unknown := &Assertion{
		VO: "stranger", Holder: kateDN,
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignAssertion(unknown, strangerCred); err != nil {
		t.Fatal(err)
	}

	e := newSessionEnv(t, 0,
		[]AuthOption{WithAssertions(as, unknown), WithFeatures("app/2")},
		[]AuthOption{WithVOCert(voCred.Leaf()), WithFeatures("app/2")})

	_, sp, cerr, serr := runClientAccept(t, e.client, e.server)
	if cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}
	if len(sp.Assertions) != 1 || sp.Assertions[0].VO != "NFC" {
		t.Fatalf("full handshake kept %d assertions, want the 1 known-VO one", len(sp.Assertions))
	}

	cp2, sp2, cerr, serr := runClientAccept(t, e.client, e.server)
	if cerr != nil || serr != nil {
		t.Fatalf("resumed handshake: client=%v server=%v", cerr, serr)
	}
	if !sp2.Resumed {
		t.Fatal("expected resumption despite the unknown-VO assertion in the hello")
	}
	if len(sp2.Assertions) != 1 || sp2.Assertions[0].VO != "NFC" {
		t.Errorf("resumed handshake kept %d assertions, want the 1 known-VO one", len(sp2.Assertions))
	}
	if !cp2.HasFeature("app/2") || !sp2.HasFeature("app/2") {
		t.Errorf("application feature lost on resumption (client=%v server=%v)", cp2.Features, sp2.Features)
	}
}

func TestTamperedTicketFallsBackToFullHandshake(t *testing.T) {
	e := newSessionEnv(t, 0, nil, nil)
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}

	s := e.session()
	s.Ticket[len(s.Ticket)/2] ^= 0x40 // corrupt the sealed ticket

	cp, sp, cerr, serr := runClientAccept(t, e.client, e.server)
	if cerr != nil || serr != nil {
		t.Fatalf("fallback handshake: client=%v server=%v", cerr, serr)
	}
	if cp.Resumed || sp.Resumed {
		t.Fatal("tampered ticket was accepted for resumption")
	}
	if sp.Identity != kateDN {
		t.Errorf("fallback identity = %s", sp.Identity)
	}
	// The fallback full handshake granted a fresh ticket.
	if e.cache.Len() != 1 {
		t.Fatalf("cache holds %d sessions after fallback, want 1 fresh", e.cache.Len())
	}
	if cp2, sp2, _, _ := runClientAccept(t, e.client, e.server); cp2 == nil || !cp2.Resumed || !sp2.Resumed {
		t.Fatal("fresh ticket from the fallback handshake did not resume")
	}
}

func TestWrongSessionSecretFailsClosed(t *testing.T) {
	e := newSessionEnv(t, 0, nil, nil)
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}

	// A valid ticket but the wrong secret: the acceptor's proof cannot
	// be verified, and that is NOT a fallback case — a party presenting
	// a stolen ticket without the secret must get nothing.
	e.session().Secret[0] ^= 0x01

	cp, _, cerr, _ := runClientAccept(t, e.client, e.server)
	if cp != nil || cerr == nil {
		t.Fatalf("resumption with wrong secret: peer=%v err=%v, want hard failure", cp, cerr)
	}
	if !errors.Is(cerr, ErrHandshakeFailed) {
		t.Errorf("error = %v, want ErrHandshakeFailed", cerr)
	}
	// The poisoned session is gone; the next attempt is a clean full
	// handshake.
	if e.cache.Len() != 0 {
		t.Fatalf("failed resumption left %d sessions cached", e.cache.Len())
	}
	if cp2, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil || cp2.Resumed {
		t.Fatalf("recovery handshake: client=%v server=%v resumed=%v", cerr, serr, cp2 != nil && cp2.Resumed)
	}
}

func TestExpiredTicketRejectedByAcceptor(t *testing.T) {
	e := newSessionEnv(t, 50*time.Millisecond, nil, nil)
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}
	time.Sleep(80 * time.Millisecond)
	// Force the client to present the expired ticket anyway (its own
	// cache would normally drop it first): the acceptor must reject.
	e.session().Expiry = time.Now().Add(time.Hour)

	cp, sp, cerr, serr := runClientAccept(t, e.client, e.server)
	if cerr != nil || serr != nil {
		t.Fatalf("fallback handshake: client=%v server=%v", cerr, serr)
	}
	if cp.Resumed || sp.Resumed {
		t.Fatal("expired ticket was accepted for resumption")
	}
}

func TestTicketExpiryClampedToProxyLifetime(t *testing.T) {
	e := newSessionEnv(t, 24*time.Hour, nil, nil)
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}
	s := e.session()
	leafExpiry := e.proxy.Leaf().NotAfter
	if s.Expiry.After(leafExpiry) {
		t.Errorf("ticket expiry %v outlives the proxy credential %v", s.Expiry, leafExpiry)
	}
	if time.Until(s.Expiry) < 30*time.Minute {
		t.Errorf("ticket expiry %v is not clamped to roughly the proxy lifetime", s.Expiry)
	}
}

func TestSessionInvalidatedByCredentialChange(t *testing.T) {
	e := newSessionEnv(t, 0, nil, nil)
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}

	// Same user re-delegates a fresh proxy: the cached session was
	// established under the old chain and must not be resumed.
	kate, err := e.ca.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	newProxy, err := Delegate(kate, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	client2 := NewAuthenticator(newProxy, e.trust, WithSessionCache(e.cache))
	cp, sp, cerr, serr := runClientAccept(t, client2, e.server)
	if cerr != nil || serr != nil {
		t.Fatalf("post-redelegation handshake: client=%v server=%v", cerr, serr)
	}
	if cp.Resumed || sp.Resumed {
		t.Fatal("session resumed across a credential change")
	}
}

func TestSessionInvalidatedByAssertionChange(t *testing.T) {
	voCred, err := newTestCA(t).Issue("/O=Grid/CN=NFC VO", KindService)
	if err != nil {
		t.Fatal(err)
	}
	e := newSessionEnv(t, 0, nil, []AuthOption{WithVOCert(voCred.Leaf())})
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}

	// The same client now presents an assertion it did not present when
	// the session was established: full handshake required.
	as := &Assertion{
		VO: "NFC", Holder: kateDN, Jobtags: []string{"NFC"},
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignAssertion(as, voCred); err != nil {
		t.Fatal(err)
	}
	client2 := NewAuthenticator(e.proxy, e.trust, WithSessionCache(e.cache), WithAssertions(as))
	cp, sp, cerr, serr := runClientAccept(t, client2, e.server)
	if cerr != nil || serr != nil {
		t.Fatalf("post-assertion-change handshake: client=%v server=%v", cerr, serr)
	}
	if cp.Resumed || sp.Resumed {
		t.Fatal("session resumed across an assertion change")
	}
	if len(sp.Assertions) != 1 {
		t.Fatalf("new assertion not verified on the fallback handshake")
	}
}

func TestExpiredProxyRejectedAtHandshake(t *testing.T) {
	// A CA whose clock ran two days behind issues a 12h user credential:
	// chain-valid anchors, expired leaf.
	past := time.Now().Add(-48 * time.Hour)
	backCA, err := NewCA(caDN, WithClock(func() time.Time { return past }), WithTTL(12*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore(backCA.Certificate())
	staleKate, err := backCA.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	// The gatekeeper credential comes from a current CA (also trusted) so
	// only the client-side expiry is under test.
	nowCA := newTestCA(t)
	gkCred, err := nowCA.Issue(gkDN, KindService)
	if err != nil {
		t.Fatal(err)
	}
	trust.Add(nowCA.Certificate())

	client := NewAuthenticator(staleKate, trust)
	server := NewAuthenticator(gkCred, trust)
	_, _, cerr, serr := runClientAccept(t, client, server)
	if serr == nil {
		t.Fatal("acceptor accepted an expired proxy credential")
	}
	if !errors.Is(serr, ErrHandshakeFailed) {
		t.Errorf("server error = %v, want ErrHandshakeFailed", serr)
	}
	if cerr == nil {
		t.Error("client side reported success against a rejecting acceptor")
	}
}

func TestHandshakeMetricsCounters(t *testing.T) {
	cm := obs.NewMetrics()
	sm := obs.NewMetrics()
	e := newSessionEnv(t, 0,
		[]AuthOption{WithMetrics(cm)},
		[]AuthOption{WithMetrics(sm)})

	// Full handshake then a resumed one: one full + one resumed on each
	// side, zero failures.
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("resumed handshake: client=%v server=%v", cerr, serr)
	}
	for side, m := range map[string]*obs.Metrics{"client": cm, "server": sm} {
		if got := m.HandshakesFull.Load(); got != 1 {
			t.Errorf("%s full handshakes = %d, want 1", side, got)
		}
		if got := m.HandshakesResumed.Load(); got != 1 {
			t.Errorf("%s resumed handshakes = %d, want 1", side, got)
		}
		if got := m.HandshakesFailed.Load(); got != 0 {
			t.Errorf("%s failed handshakes = %d, want 0", side, got)
		}
	}

	// A client from an untrusted CA is rejected: the server counts one
	// failure and no additional successes.
	strangerCA := newTestCA(t)
	stranger, err := strangerCA.Issue(kateDN, KindUser)
	if err != nil {
		t.Fatal(err)
	}
	badClient := NewAuthenticator(stranger, NewTrustStore(strangerCA.Certificate(), e.ca.Certificate()))
	if _, _, _, serr := runClientAccept(t, badClient, e.server); serr == nil {
		t.Fatal("acceptor accepted an untrusted credential")
	}
	if got := sm.HandshakesFailed.Load(); got != 1 {
		t.Errorf("server failed handshakes = %d, want 1", got)
	}
	if full, res := sm.HandshakesFull.Load(), sm.HandshakesResumed.Load(); full != 1 || res != 1 {
		t.Errorf("server success counters moved on failure: full=%d resumed=%d", full, res)
	}
}

// TestSameChainOtherKeyNeverResumes: a Credential that carries Kate's
// chain but another private key shares Kate's cache and target, yet
// never finds her session — the cache is keyed by the credential object —
// and its full handshake fails the proof of possession.
func TestSameChainOtherKeyNeverResumes(t *testing.T) {
	e := newSessionEnv(t, 0, nil, nil)
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}
	_, otherKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	impostor := NewAuthenticator(&Credential{Chain: e.proxy.Chain, Key: otherKey}, e.trust, WithSessionCache(e.cache))
	cp, sp, cerr, serr := runClientAccept(t, impostor, e.server)
	if cp != nil || sp != nil || cerr == nil || serr == nil {
		t.Fatalf("impostor authenticated: client=%v/%v server=%v/%v", cp, cerr, sp, serr)
	}
	if !errors.Is(serr, ErrHandshakeFailed) || !strings.Contains(serr.Error(), "proof of possession") {
		t.Errorf("acceptor refused the impostor with %v, want a failed proof of possession", serr)
	}
	// Kate's own session is untouched and still resumes.
	if e.cache.Len() != 1 {
		t.Fatalf("cache holds %d sessions, want Kate's alone", e.cache.Len())
	}
	if cp, sp, _, _ := runClientAccept(t, e.client, e.server); cp == nil || !cp.Resumed || !sp.Resumed {
		t.Fatal("Kate's session did not survive the impostor")
	}
}

// TestSessionCacheIsBounded: ten times the bound of distinct credentials
// never holds more than maxSessions; a full cache drops its expired
// sessions before any live one, and only when none has expired an
// arbitrary one.
func TestSessionCacheIsBounded(t *testing.T) {
	c := NewSessionCache()
	now := time.Unix(1054425600, 0)
	creds := make([]*Credential, 10*maxSessions)
	for i := range creds {
		creds[i] = &Credential{}
	}
	// Every third session expires a minute in, the rest live an hour.
	expiry := func(i int) time.Time {
		if i%3 == 0 {
			return now.Add(time.Minute)
		}
		return now.Add(time.Hour)
	}
	for i, cred := range creds[:maxSessions] {
		c.store(sessionTarget, cred, &Session{Expiry: expiry(i)}, now)
	}
	if c.Len() != maxSessions {
		t.Fatalf("Len = %d after filling, want %d", c.Len(), maxSessions)
	}
	// Two minutes on, the next insert sweeps every expired session and
	// keeps every live one.
	later := now.Add(2 * time.Minute)
	c.store(sessionTarget, creds[maxSessions], &Session{Expiry: later.Add(time.Hour)}, later)
	expired := (maxSessions + 2) / 3
	if got, want := c.Len(), maxSessions-expired+1; got != want {
		t.Fatalf("Len = %d after the sweep, want %d (the %d expired sessions gone)", got, want, expired)
	}
	for i, cred := range creds[:maxSessions] {
		_, held := c.sessions[sessionKey{sessionTarget, cred}]
		if wantHeld := i%3 != 0; held != wantHeld {
			t.Fatalf("session %d (expires %v) held: %v, want %v", i, expiry(i), held, wantHeld)
		}
	}
	for i, cred := range creds[maxSessions+1:] {
		c.store(sessionTarget, cred, &Session{Expiry: later.Add(time.Hour)}, later)
		if c.Len() > maxSessions {
			t.Fatalf("Len = %d after %d inserts, bound is %d", c.Len(), maxSessions+2+i, maxSessions)
		}
	}
	if c.Len() != maxSessions {
		t.Errorf("Len = %d at the end, want the bound %d", c.Len(), maxSessions)
	}
	// Re-storing a held key replaces it and evicts nothing.
	for k := range c.sessions {
		c.store(k.target, k.cred, &Session{Expiry: later.Add(time.Hour)}, later)
		if _, ok := c.sessions[k]; !ok || c.Len() != maxSessions {
			t.Fatalf("replacing a held session evicted: held %v, Len %d", ok, c.Len())
		}
		break
	}
}

// refHMAC is the definition hmacSHA256 is held to.
func refHMAC(key []byte, label string, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(label))
	h.Write(msg)
	return h.Sum(nil)
}

// checkHMAC holds hmacSHA256 to crypto/hmac on one input.
func checkHMAC(t *testing.T, key []byte, label string, msg []byte) {
	t.Helper()
	if got, want := hmacSHA256(key, label, msg), refHMAC(key, label, msg); !bytes.Equal(got[:], want) {
		t.Fatalf("key %d bytes, label %q, message %d bytes: %x, crypto/hmac %x", len(key), label, len(msg), got, want)
	}
}

// TestHMACMatchesCryptoHMAC sweeps every key length across the block
// size, hashed keys included, against messages on both sides of the
// stack buffer.
func TestHMACMatchesCryptoHMAC(t *testing.T) {
	buf := bytes.Repeat([]byte("0123456789abcdef"), 32)
	for kl := 0; kl <= 2*sha256.BlockSize+2; kl++ {
		for _, label := range []string{"", "confirm", "gsi-ticket-seal"} {
			for ml := 0; ml <= macStack; ml += 7 {
				checkHMAC(t, buf[len(buf)-kl:], label, buf[:ml])
			}
			edge := macStack - sha256.BlockSize - len(label)
			for ml := edge - 1; ml <= edge+1; ml++ {
				checkHMAC(t, buf[len(buf)-kl:], label, buf[:ml])
			}
		}
	}
}

// FuzzResumeMAC is the differential test of hmacSHA256 against
// crypto/hmac: keys of 0 to 130 bytes (hashed past the block size) and
// messages that fit the stack buffer or spill into the pool.
func FuzzResumeMAC(f *testing.F) {
	for _, kl := range []uint8{0, 1, 32, 63, 64, 65, 130} {
		for _, ml := range []int{0, 32, macStack - sha256.BlockSize - len("confirm"), macStack - sha256.BlockSize - len("confirm") + 1, 400} {
			f.Add(kl, []byte("seed"), "confirm", bytes.Repeat([]byte{0xa5}, ml))
		}
	}
	f.Add(uint8(17), []byte{}, "gsi-ticket-seal", []byte(`{"identity":"/O=Grid/CN=Kate"}`))
	f.Fuzz(func(t *testing.T, keyLen uint8, seed []byte, label string, msg []byte) {
		key := make([]byte, int(keyLen)%131)
		for i := range key {
			key[i] = byte(i)
			if len(seed) > 0 {
				key[i] ^= seed[i%len(seed)]
			}
		}
		checkHMAC(t, key, label, msg)
	})
}

// TestResumeAllocations is the allocation gate of a resumed handshake,
// both ends over a loopback TCP connection: no MAC allocates, and the
// whole one-round-trip resumption allocates only its buffers and what it
// decodes. (Not net.Pipe: its deadlines allocate a timer per direction
// each time one is set, and a TCP connection's do not.)
// resumeAllocs is what one resumed handshake allocates, both ends: a
// nonce each, the two features lists they announce, what the three legs
// decode to (ticket, nonces, proofs, features), the redeemed ticket's
// payload and strings, and the two peers. None of it is MAC state, and
// no read buffer: each end borrows its reader from jsonwire's pool and
// the test returns both, as a connection's owner does after its last
// read.
const resumeAllocs = 27

func TestResumeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	key, msg := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 600)
	for name, f := range map[string]func(){
		"resume proof":  func() { resumeMAC(key, "confirm", msg[:nonceLen]) },
		"ticket secret": func() { ticketSecret(key, msg[:sha256.Size]) },
		"ticket seal":   func() { ticketSealMAC(key, msg) },
	} {
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
	}

	e := newSessionEnv(t, 0, nil, nil)
	if _, _, cerr, serr := runClientAccept(t, e.client, e.server); cerr != nil || serr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cerr, serr)
	}
	c1, c2 := tcpPair(t)
	accepted := make(chan *Peer, 1)
	go func() {
		for {
			p, br, err := e.server.HandshakeAccept(c2)
			if err != nil {
				close(accepted)
				return
			}
			jsonwire.PutReader(br)
			accepted <- p
		}
	}()
	resume := func() {
		cp, br, err := e.client.HandshakeClient(c1, sessionTarget)
		if err == nil {
			jsonwire.PutReader(br)
		}
		sp := <-accepted
		if err != nil || sp == nil || !cp.Resumed || !sp.Resumed {
			t.Fatalf("resumption: client %v, %v; acceptor %v", cp, err, sp)
		}
	}
	resume()
	n := testing.AllocsPerRun(200, resume)
	t.Logf("a resumed handshake allocates %v times, both ends", n)
	if n > resumeAllocs {
		t.Errorf("a resumed handshake allocates %v times, both ends; want at most %d", n, resumeAllocs)
	}
}

// tcpPair returns the two ends of a loopback TCP connection, closed when
// the test ends.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	server, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return client, server
}
