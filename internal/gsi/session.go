package gsi

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Session resumption errors.
var (
	// ErrTicketInvalid reports a resumption ticket that failed
	// validation: tampered payload, forged seal, or expiry.
	ErrTicketInvalid = errors.New("gsi: resumption ticket invalid")
	// ErrResumeFailed wraps transport-level failures of a resumption
	// attempt. The session has already been invalidated; callers that
	// control dialing should retry with a fresh connection (which will
	// run a full handshake).
	ErrResumeFailed = errors.New("gsi: session resumption failed")
)

// DefaultTicketLifetime bounds how long a resumption ticket stays
// redeemable when the issuer is not configured otherwise. The effective
// lifetime of any individual ticket is further clamped to the peer
// credential's and assertions' remaining validity.
const DefaultTicketLifetime = 10 * time.Minute

// TicketIssuer mints and redeems the opaque, HMAC-sealed session
// resumption tickets an acceptor hands out after a full mutual
// handshake. The ticket binds the verified Peer (identity, subject,
// limited flag, digest of the presented assertions) so a later
// connection can re-establish the authenticated channel in one round
// trip, without chain verification or per-leg signatures. The issuer is
// stateless across connections: everything needed to redeem a ticket is
// inside the ticket, sealed under one of the issuer's ring secrets, so
// an issuer whose ring holds only a private random secret invalidates
// all outstanding tickets when the process restarts (clients fall back
// to a full handshake transparently). Issuers built over a SHARED ring
// (NewTicketIssuerWithRing) instead survive both restarts and failover:
// any node holding the ring secret redeems any node's tickets, and
// rotation retires secrets gracefully through the ring's overlap
// window.
type TicketIssuer struct {
	ring     *SecretRing
	lifetime time.Duration
	now      func() time.Time
}

// NewTicketIssuer creates an issuer over a fresh private single-secret
// ring. lifetime <= 0 selects DefaultTicketLifetime.
func NewTicketIssuer(lifetime time.Duration) (*TicketIssuer, error) {
	ring, err := NewSecretRing(0)
	if err != nil {
		return nil, err
	}
	return NewTicketIssuerWithRing(ring, lifetime), nil
}

// NewTicketIssuerWithRing creates an issuer over a caller-provided
// (typically shared or replicated) secret ring. lifetime <= 0 selects
// DefaultTicketLifetime. An empty follower ring issues nothing until a
// secret is installed; redemption accepts exactly the versions the ring
// currently holds.
func NewTicketIssuerWithRing(ring *SecretRing, lifetime time.Duration) *TicketIssuer {
	if lifetime <= 0 {
		lifetime = DefaultTicketLifetime
	}
	return &TicketIssuer{ring: ring, lifetime: lifetime, now: time.Now}
}

// Ring exposes the issuer's secret ring (rotation and distribution
// happen through it).
func (ti *TicketIssuer) Ring() *SecretRing { return ti.ring }

// ticketPayload is the sealed state: everything the acceptor needs to
// reconstruct the authenticated Peer without re-verifying the chain.
type ticketPayload struct {
	Identity DN   `json:"identity"`
	Subject  DN   `json:"subject"`
	Limited  bool `json:"limited,omitempty"`
	// AssertionDigest pins the exact assertion set verified at the full
	// handshake; the client re-presents the assertions at resumption
	// and the acceptor checks them against this digest instead of
	// re-verifying VO signatures.
	AssertionDigest []byte    `json:"assertionDigest,omitempty"`
	Nonce           []byte    `json:"nonce"`
	Expiry          time.Time `json:"expiry"`
}

// sealedTicket is the wire form of a ticket: the payload, the version
// of the ring secret it is sealed under, and an HMAC over the payload
// under that secret. The client treats the whole blob as opaque. Note
// the payload is not confidential — nothing on this simulated wire is —
// but it is unforgeable and tamper-evident, and the session secret
// needed to redeem it is never derivable from the ticket alone (the
// derivation is keyed, see ticketSecret).
type sealedTicket struct {
	Payload json.RawMessage `json:"payload"`
	MAC     []byte          `json:"mac"`
	// KeyID names the SecretVersion the seal was computed under, so a
	// redeeming node (possibly a different cluster member, possibly
	// post-rotation) selects the right key without trial decryption.
	KeyID uint32 `json:"keyId,omitempty"`
}

func ticketSealMAC(key, payload []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte("gsi-ticket-seal"))
	h.Write(payload)
	return h.Sum(nil)
}

// ticketSecret derives the per-ticket session secret from the seal.
// Only a holder of the ring secret can perform the derivation (it is
// keyed), so an observer of a ticket on the wire cannot impersonate
// either side of a resumption; the legitimate client receives the
// secret once, at grant time, over the channel the full handshake just
// authenticated.
func ticketSecret(key, sealMAC []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte("gsi-resume-secret"))
	h.Write(sealMAC)
	return h.Sum(nil)
}

// issue seals a ticket for an authenticated peer. The expiry is clamped
// to the peer credential's remaining lifetime and to every presented
// assertion's validity window, so a resumed session can never outlive
// what a full handshake at redeem time would have accepted.
func (ti *TicketIssuer) issue(peer *Peer) (ticket, secret []byte, expiry time.Time, err error) {
	ver, ok := ti.ring.Current()
	if !ok {
		return nil, nil, time.Time{}, errors.New("gsi: ticket secret ring is empty (no secret installed yet)")
	}
	now := ti.now()
	expiry = now.Add(ti.lifetime)
	if peer.Credential != nil {
		if leaf := peer.Credential.Leaf(); leaf != nil && leaf.NotAfter.Before(expiry) {
			expiry = leaf.NotAfter
		}
	}
	for _, a := range peer.Assertions {
		if a.NotAfter.Before(expiry) {
			expiry = a.NotAfter
		}
	}
	if !expiry.After(now) {
		return nil, nil, time.Time{}, errors.New("gsi: peer credential expires before any ticket could be redeemed")
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, time.Time{}, fmt.Errorf("gsi: generate ticket nonce: %w", err)
	}
	ticket, mac, err := sealTicket(&ticketPayload{
		Identity:        peer.Identity,
		Subject:         peer.Subject,
		Limited:         peer.Limited,
		AssertionDigest: assertionsDigest(peer.Assertions),
		Nonce:           nonce,
		Expiry:          expiry,
	}, ver.Key, ver.ID)
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	return ticket, ticketSecret(ver.Key, mac), expiry, nil
}

// redeem validates a sealed ticket at time `at` and returns the bound
// peer state and the session secret. oldKey reports that the ticket was
// sealed under a superseded ring secret still inside its rotation
// overlap window (accepted, but worth counting: a burst of them right
// after a rotation is normal, a steady stream much later is a peer
// failing to pick up new secrets).
func (ti *TicketIssuer) redeem(ticket []byte, at time.Time) (p *ticketPayload, secret []byte, oldKey bool, err error) {
	st, p, fast := parseSealedTicket(ticket)
	if !fast {
		st = sealedTicket{}
		if err := json.Unmarshal(ticket, &st); err != nil {
			return nil, nil, false, fmt.Errorf("%w: %v", ErrTicketInvalid, err)
		}
	}
	key, oldKey, ok := ti.ring.keyFor(st.KeyID, at)
	if !ok {
		return nil, nil, false, fmt.Errorf("%w: unknown or retired secret version %d", ErrTicketInvalid, st.KeyID)
	}
	if !hmac.Equal(st.MAC, ticketSealMAC(key, st.Payload)) {
		return nil, nil, false, fmt.Errorf("%w: bad seal", ErrTicketInvalid)
	}
	if !fast {
		p = new(ticketPayload)
		if err := json.Unmarshal(st.Payload, p); err != nil {
			return nil, nil, false, fmt.Errorf("%w: %v", ErrTicketInvalid, err)
		}
	}
	if at.After(p.Expiry) {
		return nil, nil, false, fmt.Errorf("%w: expired %s ago", ErrTicketInvalid, at.Sub(p.Expiry))
	}
	return p, ticketSecret(key, st.MAC), oldKey, nil
}

// resumeMAC computes one leg's proof of session-secret possession. The
// role string domain-separates the acceptor's proof (over the client
// nonce) from the client's (over the acceptor nonce).
func resumeMAC(secret []byte, role string, nonce []byte) []byte {
	h := hmac.New(sha256.New, secret)
	h.Write([]byte(role))
	h.Write(nonce)
	return h.Sum(nil)
}

// assertionsDigest binds an exact set of presented assertions. Each
// assertion's signature already covers every one of its fields, so
// hashing the signatures in presentation order pins the set.
func assertionsDigest(as []*Assertion) []byte {
	if len(as) == 0 {
		return nil
	}
	h := sha256.New()
	for _, a := range as {
		h.Write(a.Signature)
	}
	return h.Sum(nil)
}

// credentialDigest identifies the exact chain a client authenticates
// with, so a cached session is never resumed after the credential
// changed (a re-delegated proxy must re-run the full handshake).
func credentialDigest(c *Credential) []byte {
	h := sha256.New()
	for _, cert := range c.Chain {
		h.Write(cert.Signature)
	}
	return h.Sum(nil)
}

// Session is an established resumable session with one acceptor,
// granted at the end of a full handshake.
type Session struct {
	// Ticket is the acceptor's opaque sealed ticket, presented verbatim
	// at resumption.
	Ticket []byte
	// Secret authenticates both sides of a resumption. It is never sent
	// during resumption; both proofs are HMACs keyed with it.
	Secret []byte
	// Expiry is the ticket's redeem-by time (already clamped by the
	// issuer to the credential's and assertions' validity).
	Expiry time.Time
	// PeerIdentity and PeerSubject record the acceptor's verified
	// identity from the original full handshake; a resumed connection
	// reports them without re-verifying the acceptor's chain (the
	// acceptor re-authenticates by proving possession of Secret).
	PeerIdentity DN
	PeerSubject  DN

	credDigest   []byte
	assertDigest []byte
}

// SessionCache stores resumable sessions keyed by dial target. A client
// Authenticator configured with one (WithSessionCache) resumes
// transparently and falls back to a full handshake whenever the cached
// session is expired, was established under a different credential or
// assertion set, or is rejected by the acceptor. Safe for concurrent
// use.
type SessionCache struct {
	mu       sync.Mutex
	sessions map[string]*Session
}

// NewSessionCache creates an empty session cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{sessions: make(map[string]*Session)}
}

// lookup returns the session for target when it is still redeemable and
// was established with the same credential chain and assertion set;
// otherwise it drops the stale entry and returns nil.
func (c *SessionCache) lookup(target string, credDigest, assertDigest []byte, at time.Time) *Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[target]
	if !ok {
		return nil
	}
	if at.After(s.Expiry) || !bytes.Equal(s.credDigest, credDigest) || !bytes.Equal(s.assertDigest, assertDigest) {
		delete(c.sessions, target)
		return nil
	}
	return s
}

func (c *SessionCache) store(target string, s *Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sessions[target] = s
}

// Invalidate drops the cached session for target (e.g. after the
// acceptor rejected its ticket).
func (c *SessionCache) Invalidate(target string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.sessions, target)
}

// Len reports how many resumable sessions are cached.
func (c *SessionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}
