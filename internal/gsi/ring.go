package gsi

import (
	"crypto/rand"
	"fmt"
	"sync"
	"time"
)

// DefaultSecretOverlap is how long a superseded ticket-sealing secret
// stays redeemable after a rotation when the ring is not configured
// otherwise. It equals the lifetime every gatekeeper's tickets carry, so
// a rotation never strands a ticket that was valid when it was granted:
// every ticket sealed under the old secret has expired on its own by the
// time the old secret retires.
const DefaultSecretOverlap = DefaultTicketLifetime

// SecretVersion is one distributable ticket-sealing secret: an opaque
// key plus the monotonically increasing version that names it in sealed
// tickets. In a multi-gatekeeper deployment the cluster layer carries
// SecretVersions from the node that rotated to its peers, so a ticket
// granted by one node redeems on any other (failover-safe sessions).
type SecretVersion struct {
	ID  uint32 `json:"id"`
	Key []byte `json:"key"`
}

// retiredSecret is a superseded secret kept redeemable until retireAt.
type retiredSecret struct {
	key      []byte
	retireAt time.Time
}

// SecretRing holds the versioned ticket-sealing secrets of a
// TicketIssuer. New tickets always seal under the current (highest)
// version; redemption accepts the current version plus any superseded
// version still inside its overlap window, so rotating the secret is
// hitless: outstanding tickets stay valid for the overlap, then the old
// secret retires and they are refused (clients fall back to a full
// handshake transparently). Safe for concurrent use.
type SecretRing struct {
	mu      sync.Mutex
	current SecretVersion
	old     map[uint32]retiredSecret
	overlap time.Duration
	now     func() time.Time
}

// NewSecretRing creates a ring seeded with one fresh random secret
// (version 1). overlap <= 0 selects DefaultSecretOverlap.
func NewSecretRing(overlap time.Duration) (*SecretRing, error) {
	r := NewFollowerSecretRing(overlap)
	if _, err := r.Rotate(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewFollowerSecretRing creates an EMPTY ring: it can redeem nothing
// and issue nothing until a secret arrives via Install (or Rotate).
// Cluster follower nodes start this way so they never grant a ticket
// their peers could not redeem; until the first secret replicates,
// handshakes complete without resumption grants.
func NewFollowerSecretRing(overlap time.Duration) *SecretRing {
	if overlap <= 0 {
		overlap = DefaultSecretOverlap
	}
	return &SecretRing{
		old:     make(map[uint32]retiredSecret),
		overlap: overlap,
		now:     time.Now,
	}
}

// Rotate generates a fresh random secret, makes it current and returns
// it (for distribution to peers). The previous current secret stays
// redeemable for the ring's overlap window.
func (r *SecretRing) Rotate() (SecretVersion, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return SecretVersion{}, fmt.Errorf("gsi: generate ticket secret: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := SecretVersion{ID: r.current.ID + 1, Key: key}
	r.installLocked(next)
	return next, nil
}

// Install adopts a secret distributed by a peer. A version newer than
// the current one becomes current (retiring the previous current into
// the overlap window); an unknown non-current version is retained as
// redeemable for the overlap window, so a node that joins just after a
// rotation can still redeem tickets sealed under the previous secret.
// Re-installing a known version is a no-op, making distribution
// idempotent.
func (r *SecretRing) Install(v SecretVersion) {
	if v.ID == 0 || len(v.Key) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case v.ID > r.current.ID:
		r.installLocked(v)
	case v.ID == r.current.ID:
		// Already current.
	default:
		if _, ok := r.old[v.ID]; !ok {
			r.old[v.ID] = retiredSecret{key: v.Key, retireAt: r.now().Add(r.overlap)}
		}
	}
}

// installLocked makes v current, retiring the previous current secret.
func (r *SecretRing) installLocked(v SecretVersion) {
	if r.current.ID != 0 {
		r.old[r.current.ID] = retiredSecret{key: r.current.Key, retireAt: r.now().Add(r.overlap)}
	}
	r.current = v
	r.pruneLocked()
}

// pruneLocked drops old secrets whose overlap window has passed.
func (r *SecretRing) pruneLocked() {
	now := r.now()
	for id, s := range r.old {
		if now.After(s.retireAt) {
			delete(r.old, id)
		}
	}
}

// Current returns the current secret for distribution; ok is false on
// an empty (follower) ring that has not received a secret yet.
func (r *SecretRing) Current() (SecretVersion, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current, r.current.ID != 0
}

// Versions returns every currently redeemable secret — the current one
// plus superseded versions still inside their overlap window — newest
// first. Publishers use it to bring late-joining followers fully up to
// date in one message.
func (r *SecretRing) Versions() []SecretVersion {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked()
	var out []SecretVersion
	if r.current.ID != 0 {
		out = append(out, r.current)
	}
	for id, s := range r.old {
		out = append(out, SecretVersion{ID: id, Key: s.key})
	}
	return out
}

// keyFor resolves the sealing key for a ticket's version at time `at`.
// old reports that the key is a superseded (pre-rotation) secret still
// inside its overlap window; ok is false for unknown or retired
// versions.
func (r *SecretRing) keyFor(id uint32, at time.Time) (key []byte, old, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id != 0 && id == r.current.ID {
		return r.current.Key, false, true
	}
	s, found := r.old[id]
	if !found || at.After(s.retireAt) {
		return nil, false, false
	}
	return s.key, true, true
}
