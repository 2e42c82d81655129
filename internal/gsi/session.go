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

func ticketSealMAC(key, payload []byte) [sha256.Size]byte {
	return hmacSHA256(key, "gsi-ticket-seal", payload)
}

// ticketSecret derives the per-ticket session secret from the seal.
// Only a holder of the ring secret can perform the derivation (it is
// keyed), so an observer of a ticket on the wire cannot impersonate
// either side of a resumption; the legitimate client receives the
// secret once, at grant time, over the channel the full handshake just
// authenticated.
func ticketSecret(key, sealMAC []byte) [sha256.Size]byte {
	return hmacSHA256(key, "gsi-resume-secret", sealMAC)
}

// macStack is how much key pad, label and message hmacSHA256 hashes in a
// buffer on its stack: every resumption proof and secret derivation fits,
// a ticket seal does not.
const macStack = 192

// macBufs recycles the buffers of the messages that do not fit on the
// stack (the ticket seal, over the whole payload).
var macBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// hmacSHA256 is HMAC-SHA256 (RFC 2104) under key of label followed by
// msg, H(K^opad || H(K^ipad || label || msg)): byte for byte what
// crypto/hmac computes, without the two hash states it allocates per
// call. A key longer than the block is hashed first, as the RFC says.
func hmacSHA256(key []byte, label string, msg []byte) [sha256.Size]byte {
	var k [sha256.BlockSize]byte
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		copy(k[:], sum[:])
	} else {
		copy(k[:], key)
	}
	var stack [macStack]byte
	var pooled *[]byte
	n := sha256.BlockSize + len(label) + len(msg)
	buf := stack[:]
	if n > len(stack) {
		pooled = macBufs.Get().(*[]byte)
		if cap(*pooled) < n {
			*pooled = make([]byte, n)
		}
		buf = *pooled
	}
	buf = buf[:n]
	for i, b := range k {
		buf[i] = b ^ 0x36
	}
	copy(buf[copy(buf[sha256.BlockSize:], label)+sha256.BlockSize:], msg)
	inner := sha256.Sum256(buf)
	if pooled != nil {
		macBufs.Put(pooled)
	}
	var outer [sha256.BlockSize + sha256.Size]byte
	for i, b := range k {
		outer[i] = b ^ 0x5c
	}
	copy(outer[sha256.BlockSize:], inner[:])
	return sha256.Sum256(outer[:])
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
	sum := ticketSecret(ver.Key, mac[:])
	return ticket, sum[:], expiry, nil
}

// redeem validates a sealed ticket at time `at` and returns the bound
// peer state and the session secret. oldKey reports that the ticket was
// sealed under a superseded ring secret still inside its rotation
// overlap window (accepted, but worth counting: a burst of them right
// after a rotation is normal, a steady stream much later is a peer
// failing to pick up new secrets).
func (ti *TicketIssuer) redeem(ticket []byte, at time.Time) (p *ticketPayload, secret [sha256.Size]byte, oldKey bool, err error) {
	st, p, fast := parseSealedTicket(ticket)
	if !fast {
		st = sealedTicket{}
		if err := json.Unmarshal(ticket, &st); err != nil {
			return nil, secret, false, fmt.Errorf("%w: %v", ErrTicketInvalid, err)
		}
	}
	key, oldKey, ok := ti.ring.keyFor(st.KeyID, at)
	if !ok {
		return nil, secret, false, fmt.Errorf("%w: unknown or retired secret version %d", ErrTicketInvalid, st.KeyID)
	}
	if seal := ticketSealMAC(key, st.Payload); !hmac.Equal(st.MAC, seal[:]) {
		return nil, secret, false, fmt.Errorf("%w: bad seal", ErrTicketInvalid)
	}
	if !fast {
		p = new(ticketPayload)
		if err := json.Unmarshal(st.Payload, p); err != nil {
			return nil, secret, false, fmt.Errorf("%w: %v", ErrTicketInvalid, err)
		}
	}
	if at.After(p.Expiry) {
		return nil, secret, false, fmt.Errorf("%w: expired %s ago", ErrTicketInvalid, at.Sub(p.Expiry))
	}
	return p, ticketSecret(key, st.MAC), oldKey, nil
}

// resumeMAC computes one leg's proof of session-secret possession. The
// role string domain-separates the acceptor's proof (over the client
// nonce) from the client's (over the acceptor nonce).
func resumeMAC(secret []byte, role string, nonce []byte) [sha256.Size]byte {
	return hmacSHA256(secret, role, nonce)
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

// maxSessions bounds a SessionCache. A session is about 1 KiB, so a
// full cache holds about 1 MiB, whatever the number of identities that
// pass through the process.
const maxSessions = 1024

// sessionKey names a cached session: the dial target and the credential
// object that authenticated to it. The key is the object, not a digest
// of its public chain, so a Credential carrying someone else's chain and
// its own key never finds their session (it fails the full handshake's
// proof instead). credDigest still guards a credential whose chain was
// replaced in place.
type sessionKey struct {
	target string
	cred   *Credential
}

// SessionCache stores resumable sessions keyed by dial target and
// client credential. A client Authenticator configured with one
// (WithSessionCache) resumes transparently and falls back to a full
// handshake whenever the cached session is expired, was established
// under a different credential or assertion set, or is rejected by the
// acceptor. One cache may be shared by every client in a process (the
// GridFTP client does so): each credential only ever finds its own
// sessions. It holds at most maxSessions; inserting into a full cache
// drops the expired sessions, or when none has expired an arbitrary
// one. Safe for concurrent use.
type SessionCache struct {
	mu       sync.Mutex
	sessions map[sessionKey]*Session
	// nextExpiry is no later than the earliest Expiry in sessions, so an
	// insert into a full cache knows without a scan whether any session
	// has expired.
	nextExpiry time.Time
}

// NewSessionCache creates an empty session cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{sessions: make(map[sessionKey]*Session)}
}

// lookup returns cred's session for target when it is still redeemable
// and was established with the same credential chain and assertion set;
// otherwise it drops the stale entry and returns nil.
func (c *SessionCache) lookup(target string, cred *Credential, credDigest, assertDigest []byte, at time.Time) *Session {
	k := sessionKey{target, cred}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[k]
	if !ok {
		return nil
	}
	if at.After(s.Expiry) || !bytes.Equal(s.credDigest, credDigest) || !bytes.Equal(s.assertDigest, assertDigest) {
		delete(c.sessions, k)
		return nil
	}
	return s
}

// store caches cred's session for target, making room first when the
// cache is full.
func (c *SessionCache) store(target string, cred *Credential, s *Session, at time.Time) {
	k := sessionKey{target, cred}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sessions[k]; !ok && len(c.sessions) >= maxSessions {
		c.evict(at)
	}
	c.sessions[k] = s
	if c.nextExpiry.IsZero() || s.Expiry.Before(c.nextExpiry) {
		c.nextExpiry = s.Expiry
	}
}

// evict makes room for one session: every expired one goes, and if none
// had expired, an arbitrary live one (map order is random). The sweep
// runs only when nextExpiry says something has expired. Caller holds
// c.mu.
func (c *SessionCache) evict(at time.Time) {
	if at.After(c.nextExpiry) {
		c.nextExpiry = time.Time{}
		for k, s := range c.sessions {
			if at.After(s.Expiry) {
				delete(c.sessions, k)
			} else if c.nextExpiry.IsZero() || s.Expiry.Before(c.nextExpiry) {
				c.nextExpiry = s.Expiry
			}
		}
		if len(c.sessions) < maxSessions {
			return
		}
	}
	for k := range c.sessions {
		delete(c.sessions, k)
		return
	}
}

// invalidate drops cred's session for target (after the acceptor
// rejected its ticket, or the resumption failed).
func (c *SessionCache) invalidate(target string, cred *Credential) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.sessions, sessionKey{target, cred})
}

// Len reports how many resumable sessions are cached.
func (c *SessionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}
