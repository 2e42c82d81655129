package gsi

import (
	"errors"
	"testing"
	"time"

	"gridauth/internal/obs"
)

// ringPeer builds a minimal authenticated peer for direct issuer-level
// tests (no credential: the ticket expiry then clamps only to the
// issuer lifetime).
func ringPeer() *Peer {
	return &Peer{Identity: kateDN, Subject: kateDN}
}

func TestSecretRingRotationOverlap(t *testing.T) {
	ring, err := NewSecretRing(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	issuer := NewTicketIssuerWithRing(ring, time.Hour)
	ticket, secret, _, err := issuer.issue(ringPeer())
	if err != nil {
		t.Fatal(err)
	}

	now := time.Now()
	if _, _, oldKey, err := issuer.redeem(ticket, now); err != nil || oldKey {
		t.Fatalf("pre-rotation redeem: err=%v oldKey=%v", err, oldKey)
	}

	if _, err := ring.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Inside the overlap window the old-secret ticket still redeems, and
	// the redemption is flagged as old-key.
	p, secret2, oldKey, err := issuer.redeem(ticket, now)
	if err != nil {
		t.Fatalf("redeem during overlap window: %v", err)
	}
	if !oldKey {
		t.Error("redeem under superseded secret not flagged oldKey")
	}
	if p.Identity != kateDN {
		t.Errorf("payload identity = %q", p.Identity)
	}
	if string(secret) != string(secret2[:]) {
		t.Error("session secret changed across rotation for the same ticket")
	}

	// Past the overlap window the superseded secret is retired and the
	// ticket is refused, even though its own expiry is far away.
	after := now.Add(2 * time.Minute)
	if _, _, _, err := issuer.redeem(ticket, after); !errors.Is(err, ErrTicketInvalid) {
		t.Fatalf("redeem after overlap window: err=%v, want ErrTicketInvalid", err)
	}

	// Tickets sealed under the NEW secret are unaffected by the retirement.
	ticket2, _, _, err := issuer.issue(ringPeer())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, oldKey, err := issuer.redeem(ticket2, after); err != nil || oldKey {
		t.Fatalf("post-rotation ticket redeem: err=%v oldKey=%v", err, oldKey)
	}
}

func TestSecretRingCrossNodeRedeem(t *testing.T) {
	// The failover basis: two issuers (two gatekeeper nodes) whose rings
	// hold the same distributed secret redeem each other's tickets.
	leaderRing, err := NewSecretRing(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cur, ok := leaderRing.Current()
	if !ok {
		t.Fatal("fresh ring has no current secret")
	}

	followerRing := NewFollowerSecretRing(time.Minute)
	nodeA := NewTicketIssuerWithRing(leaderRing, time.Hour)
	nodeB := NewTicketIssuerWithRing(followerRing, time.Hour)

	// Before the secret replicates, node B can neither issue...
	if _, _, _, err := nodeB.issue(ringPeer()); err == nil {
		t.Fatal("empty follower ring issued a ticket")
	}
	// ...nor redeem node A's tickets.
	ticket, secretA, _, err := nodeA.issue(ringPeer())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := nodeB.redeem(ticket, time.Now()); !errors.Is(err, ErrTicketInvalid) {
		t.Fatalf("redeem without the secret: err=%v, want ErrTicketInvalid", err)
	}

	followerRing.Install(cur)
	p, secretB, oldKey, err := nodeB.redeem(ticket, time.Now())
	if err != nil {
		t.Fatalf("cross-node redeem after Install: %v", err)
	}
	if oldKey {
		t.Error("current-secret ticket flagged oldKey")
	}
	if p.Identity != kateDN || string(secretA) != string(secretB[:]) {
		t.Error("cross-node redemption did not reconstruct the same session")
	}

	// Install is idempotent and ignores stale re-deliveries.
	followerRing.Install(cur)
	if got, _ := followerRing.Current(); got.ID != cur.ID {
		t.Errorf("re-Install moved current to %d", got.ID)
	}

	// A rotation on the leader reaches the follower the same way; the
	// pre-rotation secret stays redeemable on both nodes for the overlap.
	next, err := leaderRing.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	followerRing.Install(next)
	if _, _, oldKey, err := nodeB.redeem(ticket, time.Now()); err != nil || !oldKey {
		t.Fatalf("post-rotation cross-node redeem: err=%v oldKey=%v", err, oldKey)
	}
}

// TestRotationMetrics drives rotation through the real handshake stack
// and asserts the gsi metrics count both outcomes: a resumption under a
// superseded-but-overlapping secret (gsi_tickets_old_secret_total) and
// a refusal once the secret retires (gsi_tickets_rejected_total, with a
// transparent fallback to a full handshake).
func TestRotationMetrics(t *testing.T) {
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

	const overlap = time.Minute
	ring, err := NewSecretRing(overlap)
	if err != nil {
		t.Fatal(err)
	}
	issuer := NewTicketIssuerWithRing(ring, time.Hour)
	m := obs.NewMetrics()

	// The server's clock is adjustable so the test can step past the
	// overlap window without sleeping. Handshakes are sequential and
	// joined before each adjustment.
	serverNow := time.Now()
	server := NewAuthenticator(gkCred, trust,
		WithTicketIssuer(issuer),
		WithMetrics(m),
		WithNow(func() time.Time { return serverNow }),
	)
	cache := NewSessionCache()
	client := NewAuthenticator(proxy, trust, WithSessionCache(cache))

	// Full handshake: ticket granted under secret v1.
	if _, peer, cerr, serr := runClientAccept(t, client, server); cerr != nil || serr != nil || peer.Resumed {
		t.Fatalf("initial handshake: cerr=%v serr=%v resumed=%v", cerr, serr, peer != nil && peer.Resumed)
	}
	if cache.Len() != 1 {
		t.Fatalf("no session cached after full handshake")
	}

	if _, err := ring.Rotate(); err != nil {
		t.Fatal(err)
	}

	// Resume inside the overlap window: accepted, counted as old-secret.
	if _, peer, cerr, serr := runClientAccept(t, client, server); cerr != nil || serr != nil || !peer.Resumed {
		t.Fatalf("overlap-window resume: cerr=%v serr=%v resumed=%v", cerr, serr, peer != nil && peer.Resumed)
	}
	if got := m.TicketsOldSecret.Load(); got != 1 {
		t.Errorf("gsi_tickets_old_secret_total = %d, want 1", got)
	}
	if got := m.TicketsRejected.Load(); got != 0 {
		t.Errorf("gsi_tickets_rejected_total = %d, want 0", got)
	}

	// Step the acceptor past the overlap window: the v1 ticket the
	// client still holds is refused and the handshake falls back to
	// full, granting a fresh v2 ticket.
	serverNow = serverNow.Add(overlap + time.Second)
	if _, peer, cerr, serr := runClientAccept(t, client, server); cerr != nil || serr != nil || peer.Resumed {
		t.Fatalf("post-retirement handshake: cerr=%v serr=%v resumed=%v", cerr, serr, peer != nil && peer.Resumed)
	}
	if got := m.TicketsRejected.Load(); got != 1 {
		t.Errorf("gsi_tickets_rejected_total = %d, want 1", got)
	}

	// The fresh current-secret ticket resumes without touching either
	// rotation counter again.
	if _, peer, cerr, serr := runClientAccept(t, client, server); cerr != nil || serr != nil || !peer.Resumed {
		t.Fatalf("fresh-ticket resume: cerr=%v serr=%v resumed=%v", cerr, serr, peer != nil && peer.Resumed)
	}
	if got := m.TicketsOldSecret.Load(); got != 1 {
		t.Errorf("gsi_tickets_old_secret_total = %d after fresh resume, want 1", got)
	}
	if got := m.TicketsRejected.Load(); got != 1 {
		t.Errorf("gsi_tickets_rejected_total = %d after fresh resume, want 1", got)
	}
}
