package cluster

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/faultinject"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
	"gridauth/internal/policy/analyze"
	"gridauth/internal/resilience"
	"gridauth/internal/rsl"
)

const voSource = "VO:NFC"

const permitKate = `
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey: &(action = start)(jobtag = NFC)
`

const denyAll = `
`

// fastRetry keeps reconnect loops snappy in tests.
var fastRetry = resilience.Policy{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond}

// startPublisher serves a publisher on a loopback listener.
func startPublisher(t *testing.T, cfg PublisherConfig) (*Publisher, string) {
	t.Helper()
	p := NewPublisher(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(l) }()
	t.Cleanup(p.Close)
	return p, l.Addr().String()
}

// runFollower starts a follower's sync loop under a cancellable ctx.
func runFollower(t *testing.T, f *Follower) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReplicationReachesFollowerAndInvalidatesCaches(t *testing.T) {
	pub, addr := startPublisher(t, PublisherConfig{Heartbeat: 20 * time.Millisecond})

	m := obs.NewMetrics()
	f := NewFollower(FollowerConfig{
		Addr:    addr,
		Sources: []string{voSource},
		Retry:   fastRetry,
		Metrics: m,
	})

	// The node's wiring: the replicated store backs a PDP, and OnChange
	// subscribers (the findings analyzer) hear of each replicated swap —
	// exactly like a local edit.
	store := f.Store(voSource)
	pdp := &core.StorePDP{Store: store}
	var changes int
	var chMu sync.Mutex
	store.OnChange(func() {
		chMu.Lock()
		changes++
		chMu.Unlock()
	})

	runFollower(t, f)

	spec, err := rsl.ParseSpec(`&(executable=TRANSP)(jobtag=NFC)`)
	if err != nil {
		t.Fatal(err)
	}
	req := &core.Request{
		Subject: "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey",
		Action:  "start",
		Spec:    spec,
	}

	// Before any publish the pre-seeded store is empty: abstain.
	if d := pdp.Authorize(context.Background(), req); d.Effect != core.NotApplicable {
		t.Fatalf("pre-sync effect = %v, want abstain", d.Effect)
	}

	epoch, err := pub.SetPolicy(voSource, permitKate)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower to apply the permit policy", func() bool {
		return f.Epoch() >= epoch
	})
	if d := pdp.Authorize(context.Background(), req); d.Effect != core.Permit {
		t.Fatalf("post-sync effect = %v, want permit", d.Effect)
	}
	chMu.Lock()
	if changes == 0 {
		t.Error("policy replication did not fire the store's OnChange hook")
	}
	chMu.Unlock()

	// Flip to deny and confirm the change is enforced.
	epoch2, err := pub.SetPolicy(voSource, denyAll)
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 <= epoch {
		t.Fatalf("epoch did not increase: %d then %d", epoch, epoch2)
	}
	waitFor(t, "follower to apply the deny policy", func() bool {
		return f.Epoch() >= epoch2
	})
	if d := pdp.Authorize(context.Background(), req); d.Effect == core.Permit {
		t.Fatal("superseded permit still served after replication")
	}

	if got := m.ClusterEpoch.Load(); uint64(got) != epoch2 {
		t.Errorf("cluster_epoch = %d, want %d", got, epoch2)
	}
	if m.ClusterSnapshotsApplied.Load() < 2 {
		t.Errorf("cluster_snapshots_applied_total = %d, want >= 2", m.ClusterSnapshotsApplied.Load())
	}

	// A bad policy is refused at the leader, before it can reach anyone.
	if _, err := pub.SetPolicy(voSource, "/O=Grid: &(action"); err == nil {
		t.Error("publisher accepted an unparsable policy")
	}
}

func TestSecretReplicationEnablesCrossNodeRedeem(t *testing.T) {
	pub, addr := startPublisher(t, PublisherConfig{Heartbeat: 20 * time.Millisecond})

	leaderRing, err := gsi.NewSecretRing(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	followerRing := gsi.NewFollowerSecretRing(time.Minute)
	f := NewFollower(FollowerConfig{Addr: addr, Ring: followerRing, Retry: fastRetry})
	runFollower(t, f)

	cur, ok := leaderRing.Current()
	if !ok {
		t.Fatal("leader ring empty")
	}
	epoch := pub.ShareSecret(cur)
	waitFor(t, "secret to replicate", func() bool { return f.Epoch() >= epoch })

	got, ok := followerRing.Current()
	if !ok {
		t.Fatal("follower ring still empty after replication")
	}
	if got.ID != cur.ID || string(got.Key) != string(cur.Key) {
		t.Fatal("replicated secret differs from the leader's")
	}

	// Rotation: share the new version; the follower ring keeps the old
	// one redeemable for its overlap window (ring semantics, tested in
	// gsi) and adopts the new current.
	next, err := leaderRing.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	epoch = pub.ShareSecret(next)
	waitFor(t, "rotated secret to replicate", func() bool { return f.Epoch() >= epoch })
	if got, _ := followerRing.Current(); got.ID != next.ID {
		t.Fatalf("follower current secret = v%d, want v%d", got.ID, next.ID)
	}
}

func TestFollowerReconnectsAfterPublisherRestart(t *testing.T) {
	m := obs.NewMetrics()
	pub, addr := startPublisher(t, PublisherConfig{Heartbeat: 10 * time.Millisecond})
	if _, err := pub.SetPolicy(voSource, permitKate); err != nil {
		t.Fatal(err)
	}

	f := NewFollower(FollowerConfig{Addr: addr, Sources: []string{voSource}, Retry: fastRetry, Metrics: m})
	runFollower(t, f)
	if err := f.WaitReady(ctxWithTimeout(t)); err != nil {
		t.Fatal(err)
	}

	// Kill the publisher; the follower's stream breaks and sync
	// failures start counting.
	pub.Close()
	waitFor(t, "sync failures after publisher death", func() bool {
		return m.ClusterSyncFailures.Load() > 0
	})

	// Resurrect a publisher ON THE SAME ADDRESS with newer state (epoch
	// counters survive Close, as a restarted leader's would via its
	// policy files): the follower reconnects and catches up by itself.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = pub2Serve(pub, l) }()
	epoch, err := pub.SetPolicy(voSource, denyAll)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower to catch up after restart", func() bool {
		return f.Epoch() >= epoch
	})
}

// pub2Serve re-serves a closed publisher's state on a fresh publisher —
// Close is terminal for the serving side, so a restarted leader is a
// NEW publisher seeded with the old state and a higher epoch.
func pub2Serve(old *Publisher, l net.Listener) error {
	p := NewPublisher(PublisherConfig{Heartbeat: 10 * time.Millisecond})
	st := old.State()
	p.mu.Lock()
	p.state = st.clone()
	p.mu.Unlock()
	// Mirror future changes made through the old handle (test
	// convenience: the test keeps calling old.SetPolicy).
	go func() {
		last := st.Epoch
		for {
			time.Sleep(2 * time.Millisecond)
			cur := old.State()
			if cur.Epoch > last {
				last = cur.Epoch
				p.mu.Lock()
				p.state = cur.clone()
				p.broadcastLocked()
				p.mu.Unlock()
			}
		}
	}()
	return p.Serve(l)
}

// TestRestartedPublisherNewIncarnationIsAdopted pins the recovery path
// the runbook documents: the epoch counter is in-memory on the admin
// host, so a restarted publisher mints 1..k again under a NEW
// incarnation. A surviving follower at a higher pre-restart epoch must
// adopt those states — silently discarding them would leave a
// revocation rolled out via restart unenforced forever while heartbeats
// kept the staleness guard happy.
func TestRestartedPublisherNewIncarnationIsAdopted(t *testing.T) {
	pub, addr := startPublisher(t, PublisherConfig{Heartbeat: 10 * time.Millisecond})
	// Drive the epoch well past anything the restarted publisher will
	// mint.
	for i := 0; i < 5; i++ {
		if _, err := pub.SetPolicy(voSource, permitKate); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := pub.SetPolicy(voSource, permitKate)
	if err != nil {
		t.Fatal(err)
	}

	f := NewFollower(FollowerConfig{Addr: addr, Sources: []string{voSource}, Retry: fastRetry})
	runFollower(t, f)
	waitFor(t, "follower to reach the pre-restart epoch", func() bool {
		return f.Epoch() >= epoch
	})

	// Restart: a brand-new publisher (fresh incarnation, epoch counter
	// back at 0) on the same address, publishing an edited policy — the
	// revocation case from the runbook.
	pub.Close()
	pub2 := NewPublisher(PublisherConfig{Heartbeat: 10 * time.Millisecond})
	epoch2, err := pub2.SetPolicy(voSource, denyAll)
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 >= epoch {
		t.Fatalf("restarted publisher minted epoch %d, expected a restart below %d", epoch2, epoch)
	}
	var l2 net.Listener
	waitFor(t, "the publisher address to be rebindable", func() bool {
		l2, err = net.Listen("tcp", addr)
		return err == nil
	})
	go func() { _ = pub2.Serve(l2) }()
	t.Cleanup(pub2.Close)

	// The follower reconnects by itself and must apply the NEW lineage's
	// lower epoch, enforcing the revocation.
	store := f.Store(voSource)
	req := &core.Request{Subject: "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey", Action: "start"}
	waitFor(t, "the follower to enforce the restarted publisher's policy", func() bool {
		if f.Epoch() != epoch2 {
			return false
		}
		d := (&core.StorePDP{Store: store}).Authorize(context.Background(), req)
		return d.Effect != core.Permit
	})
}

// TestAuthenticatedReplication exercises the mutually authenticated
// channel: a service-credentialed follower syncs, while a
// user-credentialed dialer — trusted by the same CA — is refused before
// any state (and any ticket secret) is sent.
func TestAuthenticatedReplication(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=Cluster Test CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	pubCred, err := ca.Issue("/O=Grid/CN=cluster-publisher", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	nodeCred, err := ca.Issue("/O=Grid/CN=node-a", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	userCred, err := ca.Issue("/O=Grid/CN=Mallory", gsi.KindUser)
	if err != nil {
		t.Fatal(err)
	}

	m := obs.NewMetrics()
	pub, addr := startPublisher(t, PublisherConfig{
		Heartbeat: 10 * time.Millisecond,
		Metrics:   m,
		Auth:      gsi.NewAuthenticator(pubCred, trust),
	})
	leaderRing, err := gsi.NewSecretRing(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := leaderRing.Current()
	epoch := pub.ShareSecret(cur)

	// A properly credentialed follower (which also pins the publisher's
	// identity) replicates the secret.
	ring := gsi.NewFollowerSecretRing(time.Minute)
	f := NewFollower(FollowerConfig{
		Addr:              addr,
		Ring:              ring,
		Retry:             fastRetry,
		Auth:              gsi.NewAuthenticator(nodeCred, trust),
		PublisherIdentity: pubCred.Identity(),
	})
	runFollower(t, f)
	waitFor(t, "authenticated follower to sync", func() bool { return f.Epoch() >= epoch })
	if _, ok := ring.Current(); !ok {
		t.Fatal("authenticated follower did not receive the ticket secret")
	}

	// A trusted USER credential must not subscribe: the state carries
	// ticket-sealing secrets no user may hold.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, _, err := gsi.NewAuthenticator(userCred, trust).HandshakeClient(conn, addr); err == nil {
		// The handshake itself is mutual and succeeds; the refusal is the
		// publisher closing the stream without ever sending state.
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := conn.Read(buf); err == nil || n > 0 {
			t.Fatal("user-credentialed subscriber received cluster state")
		}
	}
	waitFor(t, "the refusal to be counted", func() bool {
		return m.ClusterAuthFailures.Load() >= 1
	})

	// A bare (no-handshake) dialer sees nothing at all: the publisher
	// reads the subscriber's hello before it writes a byte, so it never
	// sends a State, and so never the ticket secrets.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	if n, _ := raw.Read(make([]byte, 1)); n > 0 {
		t.Fatal("publisher wrote to a dialer that never sent a hello")
	}

	// A follower pinned to the publisher's identity refuses a publisher
	// that authenticates as someone else (squatter with a stolen-but-
	// trusted service credential).
	rogueF := NewFollower(FollowerConfig{
		Addr:              addr,
		Retry:             fastRetry,
		Auth:              gsi.NewAuthenticator(nodeCred, trust),
		PublisherIdentity: "/O=Grid/CN=the-real-publisher",
	})
	runFollower(t, rogueF)
	time.Sleep(100 * time.Millisecond)
	if rogueF.Epoch() != 0 {
		t.Fatal("follower accepted state from a publisher with the wrong identity")
	}
}

// TestFollowerHandshakeIsBounded: a publisher address that accepts and
// never speaks fails the attempt at gsi.DefaultHandshakeTimeout — counted
// as a sync failure and retried — instead of pinning the sync loop, and
// the next, healthy publisher is synced from.
func TestFollowerHandshakeIsBounded(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=Cluster Test CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	pubCred, err := ca.Issue("/O=Grid/CN=cluster-publisher", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	nodeCred, err := ca.Issue("/O=Grid/CN=node-a", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	pub, addr := startPublisher(t, PublisherConfig{
		Heartbeat: 10 * time.Millisecond,
		Auth:      gsi.NewAuthenticator(pubCred, trust),
	})
	epoch, err := pub.SetPolicy(voSource, permitKate)
	if err != nil {
		t.Fatal(err)
	}

	stalled := &deadlineRecorder{Conn: faultinject.NewStalledConn()}
	var dials atomic.Int32
	m := obs.NewMetrics()
	f := NewFollower(FollowerConfig{
		Addr:    addr,
		Sources: []string{voSource},
		Retry:   fastRetry,
		Metrics: m,
		Auth:    gsi.NewAuthenticator(nodeCred, trust),
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			if dials.Add(1) == 1 {
				return stalled, nil
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	})
	start := time.Now()
	runFollower(t, f)
	waitFor(t, "the follower to sync past the stalled publisher", func() bool { return f.Epoch() >= epoch })
	if n := m.ClusterSyncFailures.Load(); n != 1 {
		t.Errorf("cluster_sync_failures_total = %d, want 1 (the stalled attempt)", n)
	}
	if n := len(stalled.set); n != 2 || !stalled.set[1].IsZero() {
		t.Fatalf("deadlines set on the stalled connection = %v, want one bound then its removal", stalled.set)
	}
	if got := stalled.set[0].Sub(start); got < gsi.DefaultHandshakeTimeout-time.Second || got > gsi.DefaultHandshakeTimeout+2*time.Second {
		t.Errorf("handshake bounded at %v, want gsi.DefaultHandshakeTimeout (%v)", got, gsi.DefaultHandshakeTimeout)
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

// TestFollowerDivergenceGaugeTracksParseFailures pins the keep-last-good
// behavior's observability: a snapshot whose policy text fails to parse
// leaves that source on its previous policy, visibly counted in
// cluster_diverged_sources until a later epoch heals it.
func TestFollowerDivergenceGaugeTracksParseFailures(t *testing.T) {
	m := obs.NewMetrics()
	f := NewFollower(FollowerConfig{Sources: []string{voSource}, Metrics: m})

	f.apply(&State{Epoch: 1, Policies: []PolicyText{{Source: voSource, Text: permitKate}}})
	if m.ClusterDivergedSources.Load() != 0 {
		t.Fatalf("diverged sources = %d after a clean apply, want 0", m.ClusterDivergedSources.Load())
	}

	// Corrupt text (the publisher validates, so this models wire
	// corruption or version skew): the epoch advances, the store keeps
	// the last good policy, and the gauge flags the pinned source.
	f.apply(&State{Epoch: 2, Policies: []PolicyText{{Source: voSource, Text: "/O=Grid: &(action"}}})
	if f.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2 (keep-last-good still advances)", f.Epoch())
	}
	if m.ClusterDivergedSources.Load() != 1 {
		t.Fatalf("diverged sources = %d after a parse failure, want 1", m.ClusterDivergedSources.Load())
	}
	if m.ClusterSyncFailures.Load() == 0 {
		t.Error("parse failure not counted as a sync failure")
	}

	// The next epoch reverts to the last good text: the unchanged-skip
	// path must clear the divergence, not leave the flag stuck.
	f.apply(&State{Epoch: 3, Policies: []PolicyText{{Source: voSource, Text: permitKate}}})
	if m.ClusterDivergedSources.Load() != 0 {
		t.Fatalf("diverged sources = %d after healing, want 0", m.ClusterDivergedSources.Load())
	}
}

func ctxWithTimeout(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestStalenessGuardFailsClosedWhenPartitioned(t *testing.T) {
	pub, addr := startPublisher(t, PublisherConfig{Heartbeat: 10 * time.Millisecond})
	if _, err := pub.SetPolicy(voSource, permitKate); err != nil {
		t.Fatal(err)
	}

	// A virtual clock drives staleness so the test never sleeps past
	// real bounds: the follower stamps contacts with it and the guard
	// measures against it.
	var clockMu sync.Mutex
	base := time.Now()
	offset := time.Duration(0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return base.Add(offset)
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		offset += d
		clockMu.Unlock()
	}

	m := obs.NewMetrics()
	f := NewFollower(FollowerConfig{
		Addr:    addr,
		Sources: []string{voSource},
		Retry:   fastRetry,
		Metrics: m,
		Now:     now,
	})
	guard := &StalenessGuard{Follower: f, MaxStaleness: 500 * time.Millisecond, Metrics: m}
	req := &core.Request{Subject: "/O=Grid/CN=anyone", Action: "start"}

	// Before the first sync the guard refuses outright: a node that has
	// never seen the cluster must not decide.
	if d := guard.Authorize(context.Background(), req); d.Effect != core.Error {
		t.Fatalf("never-synced effect = %v, want error", d.Effect)
	}
	if m.ClusterStaleRefusals.Load() != 1 {
		t.Fatalf("cluster_stale_refusals_total = %d, want 1", m.ClusterStaleRefusals.Load())
	}

	runFollower(t, f)
	if err := f.WaitReady(ctxWithTimeout(t)); err != nil {
		t.Fatal(err)
	}

	// Fresh replica: abstain, and the reason pins the epoch it decided
	// at (the epochuse discipline made observable).
	d := guard.Authorize(context.Background(), req)
	if d.Effect != core.NotApplicable {
		t.Fatalf("fresh effect = %v (%s), want abstain", d.Effect, d.Reason)
	}

	// Partition: kill the publisher, then advance the virtual clock
	// past the bound. Real heartbeats have stopped, so lastContact
	// freezes and staleness grows with the virtual clock.
	pub.Close()
	time.Sleep(30 * time.Millisecond) // let the last in-flight heartbeat land
	advance(time.Second)
	waitFor(t, "guard to trip", func() bool {
		return guard.Authorize(context.Background(), req).Effect == core.Error
	})
	if got := m.ClusterStaleRefusals.Load(); got < 2 {
		t.Errorf("cluster_stale_refusals_total = %d, want >= 2", got)
	}
}

func TestApplyIgnoresStaleAndDuplicateEpochs(t *testing.T) {
	f := NewFollower(FollowerConfig{Sources: []string{voSource}})
	store := f.Store(voSource)

	f.apply(&State{Epoch: 5, Policies: []PolicyText{{Source: voSource, Text: permitKate}}})
	if f.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", f.Epoch())
	}
	_, _, storeEpoch := store.Snapshot()

	// A redelivered (same-epoch) and an older state must change nothing
	// — not even a store swap, which would needlessly recompile the
	// policy and fire every OnChange hook.
	f.apply(&State{Epoch: 5, Policies: []PolicyText{{Source: voSource, Text: denyAll}}})
	f.apply(&State{Epoch: 3, Policies: []PolicyText{{Source: voSource, Text: denyAll}}})
	if f.Epoch() != 5 {
		t.Fatalf("epoch moved to %d on stale state", f.Epoch())
	}
	if _, _, e := store.Snapshot(); e != storeEpoch {
		t.Fatal("stale state swapped the policy store")
	}

	// An unchanged policy text at a newer epoch advances the epoch but
	// does NOT re-swap the store (no gratuitous recompile).
	f.apply(&State{Epoch: 6, Policies: []PolicyText{{Source: voSource, Text: permitKate}}})
	if f.Epoch() != 6 {
		t.Fatalf("epoch = %d, want 6", f.Epoch())
	}
	if _, _, e := store.Snapshot(); e != storeEpoch {
		t.Fatal("unchanged policy text re-swapped the store")
	}

	// A source never pre-declared materializes on first delivery.
	f.apply(&State{Epoch: 7, Policies: []PolicyText{{Source: "local", Text: permitKate}}})
	if pol, _, _ := f.Store("local").Snapshot(); pol == nil || len(pol.Statements) == 0 {
		t.Fatal("undeclared source not materialized")
	}
}

// The leader analyzes the full policy set on every publish: a
// community grant that a local (resource-owner) source always denies
// raises cluster_policy_findings on the leader, the finding travels in
// the replicated state to every follower, and a clean republish clears
// it everywhere.
func TestAnalysisFindingsReplicate(t *testing.T) {
	const siteSource = "site:local" // "local" selects the resource-owner partition

	const conflictVO = `
/O=Grid/O=Globus/OU=acme.org/CN=Dave: &(action = start)(jobtag = HPC)
`
	const siteBan = `
/O=Grid/O=Globus/OU=acme.org: &(action = start)(jobtag != HPC)
`
	const siteClean = `
/O=Grid/O=Globus/OU=acme.org: &(action = start)(count <= 64)
`

	pm := obs.NewMetrics()
	pub, addr := startPublisher(t, PublisherConfig{Heartbeat: 20 * time.Millisecond, Metrics: pm})

	fm := obs.NewMetrics()
	f := NewFollower(FollowerConfig{
		Addr:    addr,
		Sources: []string{voSource, siteSource},
		Retry:   fastRetry,
		Metrics: fm,
	})
	runFollower(t, f)

	if _, err := pub.SetPolicy(voSource, conflictVO); err != nil {
		t.Fatal(err)
	}
	if pm.ClusterPolicyFindings.Load() != 0 {
		t.Fatalf("findings before the local ban: %v", pub.Findings())
	}
	epoch, err := pub.SetPolicy(siteSource, siteBan)
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.ClusterPolicyFindings.Load(); got != 1 {
		t.Fatalf("leader cluster_policy_findings = %d, want 1: %v", got, pub.Findings())
	}
	finds := pub.Findings()
	if len(finds) != 1 || finds[0].Class != "conflict" || finds[0].Source != voSource {
		t.Fatalf("leader findings = %+v, want one conflict against %s", finds, voSource)
	}

	waitFor(t, "follower to apply the conflicting policy set", func() bool {
		return f.Epoch() >= epoch
	})
	if got := fm.ClusterPolicyFindings.Load(); got != 1 {
		t.Fatalf("follower cluster_policy_findings = %d, want 1", got)
	}

	// Republishing a compatible local policy clears the diagnosis on
	// both sides.
	epoch2, err := pub.SetPolicy(siteSource, siteClean)
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.ClusterPolicyFindings.Load(); got != 0 {
		t.Fatalf("leader gauge not cleared: %d: %v", got, pub.Findings())
	}
	if finds := pub.Findings(); len(finds) != 0 {
		t.Fatalf("leader findings not cleared: %+v", finds)
	}
	waitFor(t, "follower to apply the clean policy set", func() bool {
		return f.Epoch() >= epoch2
	})
	if got := fm.ClusterPolicyFindings.Load(); got != 0 {
		t.Fatalf("follower gauge not cleared: %d", got)
	}
}

// With FailOn set the publisher refuses a change whose analysis reaches
// the gate, leaving state, epoch and followers untouched.
func TestPublisherFailOnGate(t *testing.T) {
	pub := NewPublisher(PublisherConfig{FailOn: analyze.SeverityError})
	if _, err := pub.SetPolicy(voSource, permitKate); err != nil {
		t.Fatal(err)
	}
	before := pub.State()

	const selfGrant = `
/O=Grid/O=VO/CN=Admin: &(action = grant)(grantee = self)
`
	if _, err := pub.SetPolicy("VO:admin", selfGrant); err == nil {
		t.Fatal("gated publish succeeded")
	} else if !strings.Contains(err.Error(), "escalation") {
		t.Fatalf("gate error does not name the finding: %v", err)
	}
	after := pub.State()
	if after.Epoch != before.Epoch || len(after.Policies) != len(before.Policies) || len(after.Findings) != 0 {
		t.Fatalf("refused publish mutated state: %+v -> %+v", before, after)
	}
}

// State returns a copy of the current replicated state.
func (p *Publisher) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.clone()
}

// Findings returns the analyzer findings stamped into the current
// state (those of the last successful SetPolicy).
func (p *Publisher) Findings() []analyze.Finding {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]analyze.Finding(nil), p.state.Findings...)
}
