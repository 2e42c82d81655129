package gsi

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"gridauth/internal/obs"
)

// Handshake errors.
var (
	ErrHandshakeFailed = errors.New("gsi: mutual authentication failed")
)

const nonceLen = 32

// DefaultHandshakeTimeout bounds the handshake on an accepted connection,
// so a peer that connects and then stalls cannot pin a goroutine and a
// descriptor. Every acceptor in the module uses it.
const DefaultHandshakeTimeout = 10 * time.Second

// maxHandshakeMsg caps one handshake leg on the wire. A peer must not be
// able to balloon memory before it has authenticated; real chains,
// assertion sets and tickets are a few KB.
const maxHandshakeMsg = 1 << 20

// FeatureResume is the capability string announced in the hello when a
// side supports session resumption. It is announced automatically by
// HandshakeClient (when a SessionCache is configured) and by
// HandshakeAccept (when a TicketIssuer is configured); application
// protocols register their own capabilities with WithFeatures.
const FeatureResume = "gsi-resume/1"

// handshakeMsg is one leg of the authentication exchange. Fields are
// optional per leg; unknown fields are ignored by older peers (JSON), so
// new capabilities degrade gracefully.
type handshakeMsg struct {
	Chain      []*Certificate `json:"chain,omitempty"`
	Nonce      []byte         `json:"nonce,omitempty"`     // challenge for the peer
	Signature  []byte         `json:"signature,omitempty"` // over the peer's nonce
	Assertions []*Assertion   `json:"assertions,omitempty"`

	// Features carries capability negotiation: FeatureResume plus any
	// application-level strings registered via WithFeatures. Absent on
	// old peers, which is equivalent to "no optional features".
	Features []string `json:"features,omitempty"`

	// Session-resumption legs (see session.go).
	ResumeTicket []byte       `json:"resumeTicket,omitempty"` // client hello: ticket being redeemed
	ResumeOK     *bool        `json:"resumeOk,omitempty"`     // acceptor: ticket verdict
	ResumeMAC    []byte       `json:"resumeMac,omitempty"`    // proof of session-secret possession
	TicketGrant  *ticketGrant `json:"ticketGrant,omitempty"`  // acceptor: new ticket after a full handshake
}

// ticketGrant hands a freshly sealed ticket and its session secret to a
// client at the end of a full handshake. It travels over the channel the
// handshake just mutually authenticated, which is what makes disclosing
// the secret to this client — and only this client — sound.
type ticketGrant struct {
	Ticket []byte    `json:"ticket"`
	Secret []byte    `json:"secret"`
	Expiry time.Time `json:"expiry"`
}

// Peer describes the authenticated remote side of a connection.
type Peer struct {
	// Identity is the verified Grid identity (proxy CNs stripped).
	Identity DN
	// Subject is the literal leaf subject, including proxy components.
	Subject DN
	// Limited reports whether the peer authenticated with a limited proxy.
	Limited bool
	// Credential is the peer's verification-only credential. Nil on
	// resumed sessions: the chain was verified at the original full
	// handshake and is not re-presented.
	Credential *Credential
	// Assertions are the VO attribute assertions the peer presented.
	// Signature and holder verification has been performed; validity of
	// the *contents* is the authorization layer's business.
	Assertions []*Assertion
	// Features are the capability strings the peer announced in its
	// hello (protocol version negotiation).
	Features []string
	// Resumed reports whether this authentication was a one-round-trip
	// ticket resumption rather than a full mutual handshake.
	Resumed bool
}

// HasFeature reports whether the peer announced the capability f.
func (p *Peer) HasFeature(f string) bool {
	return hasFeature(p.Features, f)
}

func hasFeature(fs []string, f string) bool {
	for _, v := range fs {
		if v == f {
			return true
		}
	}
	return false
}

// Authenticator performs GSI-style mutual authentication over a stream.
type Authenticator struct {
	cred     *Credential
	trust    *TrustStore
	voCerts  map[DN]*Certificate
	now      func() time.Time
	asserts  []*Assertion
	features []string
	issuer   *TicketIssuer
	sessions *SessionCache
	metrics  *obs.Metrics

	// The credential's chain and the assertions as JSON arrays, encoded
	// by the first hello HandshakeAccept sends and spliced into every
	// later one: an acceptor has one authenticator and sends a hello per
	// connection. (A client holds an authenticator per identity and
	// sends a hello per connection it opens; it encodes into the pooled
	// frame buffer each time, which allocates nothing, rather than keep
	// a kilobyte alive per identity.) An authenticator is immutable and
	// so are the certificates it was built with, so the bytes cannot go
	// stale; they stay nil when only encoding/json can say why the chain
	// does not encode, which every hello then asks it.
	encodeOwn   sync.Once
	chainJSON   []byte
	assertsJSON []byte
}

// AuthOption configures an Authenticator.
type AuthOption func(*Authenticator)

// WithAssertions attaches VO assertions that will be presented to peers.
func WithAssertions(as ...*Assertion) AuthOption {
	return func(a *Authenticator) { a.asserts = append(a.asserts, as...) }
}

// WithVOCert registers a VO certificate used to verify presented
// assertions. Assertions from unknown VOs are dropped, not fatal.
func WithVOCert(cert *Certificate) AuthOption {
	return func(a *Authenticator) { a.voCerts[cert.Subject] = cert }
}

// WithNow sets the authenticator's time source.
func WithNow(now func() time.Time) AuthOption {
	return func(a *Authenticator) { a.now = now }
}

// WithFeatures announces application-level capability strings in the
// handshake hello (e.g. a protocol version). The peer's announced set is
// reported on Peer.Features.
func WithFeatures(fs ...string) AuthOption {
	return func(a *Authenticator) { a.features = append(a.features, fs...) }
}

// WithTicketIssuer enables session resumption on the acceptor side:
// HandshakeAccept grants tickets after full handshakes and redeems them
// on later connections.
func WithTicketIssuer(ti *TicketIssuer) AuthOption {
	return func(a *Authenticator) { a.issuer = ti }
}

// WithSessionCache enables session resumption on the client side:
// HandshakeClient stores granted tickets and resumes transparently.
func WithSessionCache(sc *SessionCache) AuthOption {
	return func(a *Authenticator) { a.sessions = sc }
}

// WithMetrics counts every handshake this authenticator completes —
// full, resumed or failed — into m, and the certificate signatures its
// chain verifications checked and found in the trust store's memo.
func WithMetrics(m *obs.Metrics) AuthOption {
	return func(a *Authenticator) { a.metrics = m }
}

// countHandshake classifies one handshake outcome into the metric set
// (no-op without WithMetrics).
func (a *Authenticator) countHandshake(peer *Peer, err error) {
	if a.metrics == nil {
		return
	}
	switch {
	case err != nil:
		a.metrics.HandshakesFailed.Inc()
	case peer.Resumed:
		a.metrics.HandshakesResumed.Inc()
	default:
		a.metrics.HandshakesFull.Inc()
	}
}

// NewAuthenticator builds an authenticator for the local credential,
// trusting chains that verify against trust.
func NewAuthenticator(cred *Credential, trust *TrustStore, opts ...AuthOption) *Authenticator {
	a := &Authenticator{
		cred:    cred,
		trust:   trust,
		voCerts: make(map[DN]*Certificate),
		now:     time.Now,
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// legOrder is the order in which a role sends its leg of an exchange
// and reads the peer's.
type legOrder int

const (
	// sendFirst is HandshakeClient's order and recvFirst HandshakeAccept's.
	// One writes while the other reads, so the pair needs no goroutine and
	// cannot deadlock even on a transport that buffers nothing.
	sendFirst legOrder = iota
	recvFirst
	// bothSend is the symmetric Handshake's: its peer may be another
	// symmetric caller, which also transmits first, so it sends from a
	// goroutine while it reads. That also makes it a valid peer of either
	// role-aware order.
	bothSend
)

// exchange sends out and reads the peer's leg into in, in the given
// order. what names the leg in errors.
func (a *Authenticator) exchange(rw io.ReadWriter, br *bufio.Reader, order legOrder, what string, out, in *handshakeMsg) error {
	switch order {
	case sendFirst:
		if err := a.sendLeg(rw, what, out); err != nil {
			return err
		}
		return recvLeg(br, what, in)
	case recvFirst:
		if err := recvLeg(br, what, in); err != nil {
			return err
		}
		return a.sendLeg(rw, what, out)
	}
	// The goroutine sends a copy, so that out stays on the caller's stack
	// in the orders that start none.
	leg := *out
	sendErr := make(chan error, 1)
	go func() { sendErr <- a.sendLeg(rw, what, &leg) }()
	if err := recvLeg(br, what, in); err != nil {
		return err
	}
	return <-sendErr
}

func (a *Authenticator) sendLeg(w io.Writer, what string, m *handshakeMsg) error {
	if err := a.send(w, m); err != nil {
		return fmt.Errorf("send %s: %w", what, err)
	}
	return nil
}

func recvLeg(br *bufio.Reader, what string, m *handshakeMsg) error {
	if err := readMsg(br, m); err != nil {
		return fmt.Errorf("read peer %s: %w", what, err)
	}
	return nil
}

// send writes one leg.
func (a *Authenticator) send(w io.Writer, m *handshakeMsg) error {
	return writeMsg(w, m, nil, nil)
}

// sendAcceptorHello writes an acceptor's hello, whose chain and
// assertions are the authenticator's own: it encodes them once.
func (a *Authenticator) sendAcceptorHello(w io.Writer, m *handshakeMsg) error {
	a.encodeOwn.Do(func() {
		if b, ok := appendCertificates(nil, a.cred.Chain); ok {
			a.chainJSON = b
		}
		if len(a.asserts) > 0 {
			if b, ok := appendAssertions(nil, a.asserts); ok {
				a.assertsJSON = b
			}
		}
	})
	return writeMsg(w, m, a.chainJSON, a.assertsJSON)
}

// hello is the leg that opens a full handshake.
func (a *Authenticator) hello(nonce []byte, features []string) handshakeMsg {
	return handshakeMsg{Chain: a.cred.Chain, Nonce: nonce, Assertions: a.asserts, Features: features}
}

// Handshake runs mutual authentication over rw. Both sides call it; the
// exchange is symmetric: each sends its chain plus a fresh nonce, then
// each returns a signature over the peer's nonce. On success it returns
// the verified peer and the buffered reader used for the exchange —
// callers MUST continue reading from that reader, not from rw directly,
// because it may already hold bytes of the next protocol message.
//
// The symmetric form never resumes sessions and never grants tickets
// (neither side knows which of them would issue); protocols that want
// resumption use the role-aware HandshakeClient / HandshakeAccept pair.
// The forms interoperate: a symmetric caller against HandshakeAccept
// (or vice versa) completes a full handshake.
func (a *Authenticator) Handshake(rw io.ReadWriter) (*Peer, *bufio.Reader, error) {
	peer, br, err := a.handshakeSymmetric(rw)
	a.countHandshake(peer, err)
	return peer, br, err
}

func (a *Authenticator) handshakeSymmetric(rw io.ReadWriter) (*Peer, *bufio.Reader, error) {
	br := bufio.NewReader(rw)
	nonce, err := newNonce()
	if err != nil {
		return nil, nil, err
	}
	// Both sides transmit first, so a synchronous transport (e.g.
	// net.Pipe) must not serialize the two hellos.
	hello := a.hello(nonce, a.features)
	var peerHello handshakeMsg
	if err := a.exchange(rw, br, bothSend, "hello", &hello, &peerHello); err != nil {
		return nil, nil, err
	}
	peer, peerCred, err := a.verifyPeerHello(&peerHello)
	if err != nil {
		return nil, nil, err
	}
	if err := a.proofExchange(rw, br, bothSend, nonce, peerHello.Nonce, peerCred); err != nil {
		return nil, nil, err
	}
	return peer, br, nil
}

// HandshakeAccept runs the acceptor side of a client/acceptor handshake:
// it reads the client's hello first, so it can serve both full
// handshakes and ticket resumptions (and remains compatible with old
// symmetric clients, which also transmit their hello first). With a
// TicketIssuer configured it grants a resumption ticket after every full
// handshake with a resumption-capable client. In every exchange it
// reads the peer's leg before it writes its own (see legOrder).
func (a *Authenticator) HandshakeAccept(rw io.ReadWriter) (*Peer, *bufio.Reader, error) {
	br := bufio.NewReader(rw)
	peer, err := a.handshakeAccept(rw, br)
	a.countHandshake(peer, err)
	if err != nil {
		return nil, nil, err
	}
	return peer, br, nil
}

func (a *Authenticator) handshakeAccept(rw io.ReadWriter, br *bufio.Reader) (*Peer, error) {
	var clientHello handshakeMsg
	if err := readMsg(br, &clientHello); err != nil {
		return nil, fmt.Errorf("read peer hello: %w", err)
	}

	rejectedResume := false
	if len(clientHello.ResumeTicket) > 0 {
		peer, ok, err := a.acceptResume(rw, br, &clientHello)
		if err != nil {
			return nil, err
		}
		if ok {
			return peer, nil
		}
		rejectedResume = true
	}

	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	hello := a.hello(nonce, a.acceptFeatures())
	if rejectedResume {
		// Signal the rejection in the same leg that carries the full
		// hello, so falling back costs the client no extra round trip.
		no := false
		hello.ResumeOK = &no
	}
	if err := a.sendAcceptorHello(rw, &hello); err != nil {
		return nil, fmt.Errorf("send hello: %w", err)
	}
	if rejectedResume {
		// The rejected resumption attempt was not a full hello; the
		// client falls back and sends one now.
		clientHello = handshakeMsg{}
		if err := readMsg(br, &clientHello); err != nil {
			return nil, fmt.Errorf("read peer hello: %w", err)
		}
	}
	peer, peerCred, err := a.verifyPeerHello(&clientHello)
	if err != nil {
		return nil, err
	}
	if err := a.proofExchange(rw, br, recvFirst, nonce, clientHello.Nonce, peerCred); err != nil {
		return nil, err
	}
	// Grant a resumption ticket only to clients that announced the
	// capability: an old client would misread the extra leg as its first
	// application message.
	if a.issuer != nil && hasFeature(clientHello.Features, FeatureResume) {
		grant := handshakeMsg{}
		if ticket, secret, expiry, err := a.issuer.issue(peer); err == nil {
			grant.TicketGrant = &ticketGrant{Ticket: ticket, Secret: secret, Expiry: expiry}
		}
		// An issuance failure (credential at the edge of expiry) grants
		// nothing, but the leg must still be sent — the client is
		// waiting for it.
		if err := a.send(rw, &grant); err != nil {
			return nil, fmt.Errorf("send ticket grant: %w", err)
		}
	}
	return peer, nil
}

// acceptResume attempts to resume from the client's presented ticket.
// ok=false with a nil error means the ticket was rejected (expired,
// tampered, assertion mismatch, or no issuer) and the caller must fall
// back to a full handshake; a non-nil error aborts the connection.
func (a *Authenticator) acceptResume(rw io.ReadWriter, br *bufio.Reader, clientHello *handshakeMsg) (*Peer, bool, error) {
	if a.issuer == nil || len(clientHello.Nonce) != nonceLen {
		return nil, false, nil
	}
	state, secret, oldKey, err := a.issuer.redeem(clientHello.ResumeTicket, a.now())
	if err != nil {
		// Ticket refused (tampered, expired, or sealed under an unknown/
		// retired ring secret): count it and fall back to a full
		// handshake. Post-rotation refusals land here once the old
		// secret's overlap window closes.
		if a.metrics != nil {
			a.metrics.TicketsRejected.Inc()
		}
		return nil, false, nil
	}
	if oldKey && a.metrics != nil {
		// Redeemed under a superseded secret still in its overlap
		// window — the hitless-rotation path.
		a.metrics.TicketsOldSecret.Inc()
	}
	// The re-presented assertions must be the exact set the full
	// handshake verified and the ticket sealed: the digest (over the
	// assertion signatures) pins them, so no VO signature needs
	// re-checking here. Unknown-VO assertions are dropped before
	// digesting, exactly as the full handshake drops them before
	// verification. Any other set forces a full handshake.
	var kept []*Assertion
	for _, as := range clientHello.Assertions {
		if as == nil { // "assertions":[null]
			continue
		}
		if _, ok := a.voCerts[as.Issuer]; ok {
			kept = append(kept, as)
		}
	}
	if !bytes.Equal(assertionsDigest(kept), state.AssertionDigest) {
		return nil, false, nil
	}
	nonce, err := newNonce()
	if err != nil {
		return nil, false, err
	}
	ok := true
	accept := handshakeMsg{
		ResumeOK:  &ok,
		Nonce:     nonce,
		ResumeMAC: resumeMAC(secret, "accept", clientHello.Nonce),
		Features:  a.acceptFeatures(),
	}
	// The client cannot send its confirm before it has this leg: the
	// confirm is a MAC over the nonce in it. So write, then read.
	if err := a.send(rw, &accept); err != nil {
		return nil, false, fmt.Errorf("send resume accept: %w", err)
	}
	var confirm handshakeMsg
	if err := readMsg(br, &confirm); err != nil {
		return nil, false, fmt.Errorf("read resume confirm: %w", err)
	}
	// The client proves possession of the session secret over our fresh
	// nonce; a replayed recording of an earlier resumption cannot.
	if !hmac.Equal(confirm.ResumeMAC, resumeMAC(secret, "confirm", nonce)) {
		return nil, false, fmt.Errorf("%w: peer failed resumption proof", ErrHandshakeFailed)
	}
	return &Peer{
		Identity:   state.Identity,
		Subject:    state.Subject,
		Limited:    state.Limited,
		Assertions: kept,
		Features:   clientHello.Features,
		Resumed:    true,
	}, true, nil
}

// HandshakeClient runs the initiating side of a client/acceptor
// handshake against the acceptor at target (the session-cache key,
// normally the dial address). With a SessionCache configured it resumes
// a cached session in one round trip — skipping chain verification and
// the per-leg signatures — and falls back to a full handshake, on the
// same connection, when the acceptor rejects the ticket. A resumption
// attempt that dies at the transport level returns an error wrapping
// ErrResumeFailed after invalidating the cached session, so the caller
// can redial and get a full handshake. In every exchange it writes its
// leg before it reads the peer's (see legOrder).
func (a *Authenticator) HandshakeClient(rw io.ReadWriter, target string) (*Peer, *bufio.Reader, error) {
	peer, br, err := a.handshakeClient(rw, target)
	a.countHandshake(peer, err)
	return peer, br, err
}

func (a *Authenticator) handshakeClient(rw io.ReadWriter, target string) (*Peer, *bufio.Reader, error) {
	br := bufio.NewReader(rw)
	if a.sessions != nil {
		s := a.sessions.lookup(target, credentialDigest(a.cred), assertionsDigest(a.asserts), a.now())
		if s != nil {
			peer, acceptorHello, err := a.tryResume(rw, br, s)
			if err != nil {
				a.sessions.Invalidate(target)
				if errors.Is(err, ErrHandshakeFailed) {
					return nil, nil, err
				}
				return nil, nil, fmt.Errorf("%w: %v", ErrResumeFailed, err)
			}
			if peer != nil {
				return peer, br, nil
			}
			// Rejected: acceptorHello is the acceptor's full hello; drop
			// the stale session and complete a full handshake on this
			// same connection.
			a.sessions.Invalidate(target)
			peer, err = a.clientFullFrom(rw, br, acceptorHello, target)
			if err != nil {
				return nil, nil, err
			}
			return peer, br, nil
		}
	}
	peer, err := a.clientFull(rw, br, target)
	if err != nil {
		return nil, nil, err
	}
	return peer, br, nil
}

// tryResume runs the one-round-trip resumption. It returns the resumed
// peer on success; (nil, acceptorHello, nil) when the acceptor rejected
// the ticket and fell back to a full hello; or an error.
func (a *Authenticator) tryResume(rw io.ReadWriter, br *bufio.Reader, s *Session) (*Peer, *handshakeMsg, error) {
	nonce, err := newNonce()
	if err != nil {
		return nil, nil, err
	}
	hello := handshakeMsg{
		ResumeTicket: s.Ticket,
		Nonce:        nonce,
		Assertions:   a.asserts,
		Features:     a.clientFeatures(),
	}
	if err := a.send(rw, &hello); err != nil {
		return nil, nil, fmt.Errorf("send resume hello: %w", err)
	}
	var reply handshakeMsg
	if err := readMsg(br, &reply); err != nil {
		return nil, nil, fmt.Errorf("read resume reply: %w", err)
	}
	if reply.ResumeOK == nil || !*reply.ResumeOK {
		if len(reply.Chain) == 0 {
			// Not an acceptor that understands fallback (e.g. an old
			// symmetric peer confused by the ticket): bail out.
			return nil, nil, errors.New("peer rejected resumption without falling back")
		}
		return nil, &reply, nil
	}
	// Authenticate the acceptor: only the ticket issuer can derive the
	// session secret, and the MAC covers our fresh nonce.
	if len(reply.Nonce) != nonceLen || !hmac.Equal(reply.ResumeMAC, resumeMAC(s.Secret, "accept", nonce)) {
		return nil, nil, fmt.Errorf("%w: peer failed resumption proof", ErrHandshakeFailed)
	}
	if err := a.send(rw, &handshakeMsg{ResumeMAC: resumeMAC(s.Secret, "confirm", reply.Nonce)}); err != nil {
		return nil, nil, fmt.Errorf("send resume confirm: %w", err)
	}
	return &Peer{
		Identity: s.PeerIdentity,
		Subject:  s.PeerSubject,
		Features: reply.Features,
		Resumed:  true,
	}, nil, nil
}

// clientFull runs a full handshake from scratch (no resumption attempt
// preceded it on this connection).
func (a *Authenticator) clientFull(rw io.ReadWriter, br *bufio.Reader, target string) (*Peer, error) {
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	// The acceptor reads first and answers; a symmetric peer transmits
	// from a goroutine while it reads. Writing first suits both.
	hello := a.hello(nonce, a.clientFeatures())
	var acceptorHello handshakeMsg
	if err := a.exchange(rw, br, sendFirst, "hello", &hello, &acceptorHello); err != nil {
		return nil, err
	}
	return a.clientFinish(rw, br, nonce, &acceptorHello, target)
}

// clientFullFrom completes a full handshake after a rejected resumption:
// the acceptor's hello is already in hand, ours still has to be sent.
func (a *Authenticator) clientFullFrom(rw io.ReadWriter, br *bufio.Reader, acceptorHello *handshakeMsg, target string) (*Peer, error) {
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	hello := a.hello(nonce, a.clientFeatures())
	if err := a.send(rw, &hello); err != nil {
		return nil, fmt.Errorf("send hello: %w", err)
	}
	return a.clientFinish(rw, br, nonce, acceptorHello, target)
}

// clientFinish verifies the acceptor's hello, exchanges proofs, and —
// when both sides announced FeatureResume — reads the ticket-grant leg
// and caches the session.
func (a *Authenticator) clientFinish(rw io.ReadWriter, br *bufio.Reader, nonce []byte, acceptorHello *handshakeMsg, target string) (*Peer, error) {
	peer, peerCred, err := a.verifyPeerHello(acceptorHello)
	if err != nil {
		return nil, err
	}
	if err := a.proofExchange(rw, br, sendFirst, nonce, acceptorHello.Nonce, peerCred); err != nil {
		return nil, err
	}
	if a.sessions != nil && hasFeature(acceptorHello.Features, FeatureResume) {
		var grant handshakeMsg
		if err := readMsg(br, &grant); err != nil {
			return nil, fmt.Errorf("read ticket grant: %w", err)
		}
		if g := grant.TicketGrant; g != nil && len(g.Ticket) > 0 && len(g.Secret) > 0 {
			a.sessions.store(target, &Session{
				Ticket:       g.Ticket,
				Secret:       g.Secret,
				Expiry:       g.Expiry,
				PeerIdentity: peer.Identity,
				PeerSubject:  peer.Subject,
				credDigest:   credentialDigest(a.cred),
				assertDigest: assertionsDigest(a.asserts),
			})
		}
	}
	return peer, nil
}

// verifyPeerHello checks the chain and assertions of a full hello and
// builds the (pre-proof) peer.
func (a *Authenticator) verifyPeerHello(ph *handshakeMsg) (*Peer, *Credential, error) {
	if len(ph.Nonce) != nonceLen {
		return nil, nil, fmt.Errorf("%w: bad peer nonce", ErrHandshakeFailed)
	}
	peerCred := &Credential{Chain: ph.Chain}
	identity, sigs, err := a.trust.verifyCounted(peerCred, a.now())
	if a.metrics != nil {
		a.metrics.CertSigChecks.Add(sigs.Checks)
		a.metrics.CertSigMemoHits.Add(sigs.MemoHits)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrHandshakeFailed, err)
	}
	peer := &Peer{
		Identity:   identity,
		Subject:    peerCred.Subject(),
		Limited:    peerCred.Leaf().Kind == KindLimited,
		Credential: peerCred,
		Features:   ph.Features,
	}
	for _, as := range ph.Assertions {
		if as == nil { // "assertions":[null]
			continue
		}
		voCert, ok := a.voCerts[as.Issuer]
		if !ok {
			continue // unknown VO: ignore the assertion
		}
		if err := VerifyAssertion(as, voCert, identity, a.now()); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrHandshakeFailed, err)
		}
		peer.Assertions = append(peer.Assertions, as)
	}
	return peer, peerCred, nil
}

// proofExchange proves possession of our key by signing the peer's
// nonce, in the role's leg order, and checks the peer's proof over ours.
func (a *Authenticator) proofExchange(rw io.ReadWriter, br *bufio.Reader, order legOrder, myNonce, peerNonce []byte, peerCred *Credential) error {
	sig, err := a.cred.Sign(peerNonce)
	if err != nil {
		return err
	}
	var peerProof handshakeMsg
	if err := a.exchange(rw, br, order, "proof", &handshakeMsg{Signature: sig}, &peerProof); err != nil {
		return err
	}
	if err := peerCred.VerifyBy(myNonce, peerProof.Signature); err != nil {
		return fmt.Errorf("%w: peer failed proof of possession", ErrHandshakeFailed)
	}
	return nil
}

// clientFeatures is what HandshakeClient announces: the application
// features plus FeatureResume when a session cache is configured.
func (a *Authenticator) clientFeatures() []string {
	if a.sessions == nil {
		return a.features
	}
	return append([]string{FeatureResume}, a.features...)
}

// acceptFeatures is what HandshakeAccept announces: the application
// features plus FeatureResume when a ticket issuer is configured.
func (a *Authenticator) acceptFeatures() []string {
	if a.issuer == nil {
		return a.features
	}
	return append([]string{FeatureResume}, a.features...)
}

func newNonce() ([]byte, error) {
	nonce := make([]byte, nonceLen)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("generate nonce: %w", err)
	}
	return nonce, nil
}
