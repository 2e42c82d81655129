package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridauth/internal/gsi"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/policy/analyze"
	"gridauth/internal/resilience"
)

// neverSynced is the staleness reported before the first publisher
// contact: effectively infinite, so a guard refuses until the node has
// seen the cluster at least once.
const neverSynced = time.Duration(math.MaxInt64)

// FollowerConfig wires a Follower into one gatekeeper node.
type FollowerConfig struct {
	// Addr is the publisher's address.
	Addr string
	// Sources pre-creates a (still empty) policy.Store per named
	// administrative source, so the node's PDP chain can bind them —
	// and subscribe their OnChange hooks — BEFORE the first snapshot
	// arrives. A source the publisher ships that was not pre-declared
	// still gets a store (see Store), but nothing is bound to it.
	Sources []string
	// Ring receives replicated ticket-secret versions; nil disables
	// secret replication on this node.
	Ring *gsi.SecretRing
	// Retry paces reconnection to the publisher; the zero value selects
	// the resilience defaults. The follower NEVER gives up while its
	// context lives: an exhausted retry budget just restarts the cycle.
	Retry resilience.Policy
	// Dial overrides the transport (tests inject partitions and
	// faultinject conns); nil selects net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Auth, when set, mutually authenticates every publisher connection
	// with the GSI handshake before any state is accepted: whatever
	// answers the dial must prove a service-kind credential the trust
	// store verifies, or a port squatter / MITM could inject policy and
	// ticket secrets. Without Auth the channel MUST be confined to the
	// trusted admin network (docs/CLUSTER.md).
	Auth *gsi.Authenticator
	// PublisherIdentity, when non-empty, additionally pins the verified
	// publisher identity — any other trusted service is refused. Only
	// meaningful with Auth set.
	PublisherIdentity gsi.DN
	// Metrics receives cluster_epoch, cluster_snapshots_applied_total,
	// cluster_sync_failures_total and cluster_diverged_sources. Nil
	// selects a private sink.
	Metrics *obs.Metrics
	// OnApply, when set, runs after each snapshot is fully applied
	// (policies swapped, secrets installed), with the cluster epoch it
	// carried.
	OnApply func(epoch uint64)
	// Now is the follower's clock (tests); nil selects time.Now.
	Now func() time.Time
}

// Follower is the replica side of cluster replication: it subscribes to
// the publisher, applies each newer-epoch state atomically, and tracks
// how stale its view is. Policy swaps go through policy.Store.Replace,
// so the node's next request is decided against the new policy exactly
// as after a local policy edit — replication is invisible to the PDP
// chain.
type Follower struct {
	cfg     FollowerConfig
	metrics *obs.Metrics
	now     func() time.Time

	mu          sync.Mutex
	stores      map[string]*policy.Store
	lastText    map[string]string
	diverged    map[string]bool // sources pinned on last-good policy after a parse failure
	incarnation string          // publisher lineage the applied epoch belongs to
	findings    []analyze.Finding

	epoch       atomic.Uint64
	lastContact atomic.Int64 // UnixNano of the last received state; 0 = never

	readyOnce sync.Once
	ready     chan struct{}
}

// NewFollower creates a follower; call Run to start syncing.
func NewFollower(cfg FollowerConfig) *Follower {
	f := &Follower{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		now:      cfg.Now,
		stores:   make(map[string]*policy.Store),
		lastText: make(map[string]string),
		diverged: make(map[string]bool),
		ready:    make(chan struct{}),
	}
	if f.metrics == nil {
		f.metrics = obs.NewMetrics()
	}
	if f.now == nil {
		f.now = time.Now
	}
	for _, source := range cfg.Sources {
		f.stores[source] = policy.NewStore(policy.MustParse("", source))
	}
	return f
}

// Store returns the policy store replicating the named source, creating
// an empty one on first use so callers can bind sources that appear
// later. The same name always returns the same store.
func (f *Follower) Store(source string) *policy.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.stores[source]
	if !ok {
		st = policy.NewStore(policy.MustParse("", source))
		f.stores[source] = st
	}
	return st
}

// Sources returns the pre-declared administrative sources in
// configuration order: the stores a node binds into its PDP chain.
func (f *Follower) Sources() []string { return f.cfg.Sources }

// Epoch returns the last cluster epoch this node applied (0 before the
// first snapshot).
func (f *Follower) Epoch() uint64 {
	return f.epoch.Load()
}

// Staleness reports how long ago the publisher was last heard from —
// heartbeats count, so a healthy idle cluster stays near the heartbeat
// interval. Before the first contact it is effectively infinite.
func (f *Follower) Staleness() time.Duration {
	last := f.lastContact.Load()
	if last == 0 {
		return neverSynced
	}
	d := f.now().Sub(time.Unix(0, last))
	if d < 0 {
		return 0
	}
	return d
}

// WaitReady blocks until the follower has applied its first snapshot
// (so policies and secrets are live) or ctx ends.
//
//authlint:ignore deadexport TestClusterSoak and TestStaleFollowerAnswersErrorNotDeny wait for their followers with it
func (f *Follower) WaitReady(ctx context.Context) error {
	select {
	case <-f.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run syncs from the publisher until ctx ends, reconnecting with the
// configured retry pacing after every failure. It always returns ctx's
// error.
func (f *Follower) Run(ctx context.Context) error {
	dial := f.cfg.Dial
	if dial == nil {
		var d net.Dialer
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	for ctx.Err() == nil {
		// One Do cycle = up to Attempts tries with growing backoff; the
		// outer loop restarts the cycle forever. A successful stream
		// that later breaks re-enters as a fresh failure.
		_ = f.cfg.Retry.Do(ctx, func(int) (error, bool) {
			err := f.stream(ctx, dial)
			if err != nil && ctx.Err() == nil {
				f.metrics.ClusterSyncFailures.Inc()
			}
			return err, true
		})
	}
	return ctx.Err()
}

// stream runs one subscription: dial, authenticate (when configured),
// then decode and apply states until the connection breaks.
func (f *Follower) stream(ctx context.Context, dial func(context.Context, string) (net.Conn, error)) error {
	conn, err := dial(ctx, f.cfg.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	dec := json.NewDecoder(conn)
	if f.cfg.Auth != nil {
		// The handshake is bounded: a publisher that accepts and never
		// speaks fails this attempt, so the sync loop counts it and
		// retries.
		peer, br, err := f.cfg.Auth.HandshakeClient(conn, f.cfg.Addr)
		if err != nil {
			return err
		}
		if err := f.checkPublisher(peer); err != nil {
			return err
		}
		// The handshake's buffered reader may already hold the first
		// snapshot; all further reads must go through it.
		dec = json.NewDecoder(br)
	}
	for {
		var st State
		if err := dec.Decode(&st); err != nil {
			return err
		}
		f.apply(&st)
	}
}

// checkPublisher decides whether the authenticated peer at the far end
// of a replication stream is a publisher this node will accept state
// from.
func (f *Follower) checkPublisher(peer *gsi.Peer) error {
	if peer.Credential == nil || peer.Credential.Leaf().Kind != gsi.KindService {
		return fmt.Errorf("cluster: publisher %s did not present a service credential", peer.Identity)
	}
	if f.cfg.PublisherIdentity != "" && peer.Identity != f.cfg.PublisherIdentity {
		return fmt.Errorf("cluster: publisher identity %s, want %s", peer.Identity, f.cfg.PublisherIdentity)
	}
	return nil
}

// apply installs one received state. Any contact — heartbeat or change
// — resets the staleness clock; only a strictly newer epoch of the
// current publisher incarnation mutates policy and secrets, so
// redelivered or reordered states are no-ops. Secrets install before
// policies: a snapshot that both rotates the ticket secret and tightens
// policy must not leave a window where the new policy is enforced but
// freshly sealed tickets are unredeemable.
func (f *Follower) apply(st *State) {
	f.lastContact.Store(f.now().UnixNano())
	f.mu.Lock()
	if st.Incarnation != "" && st.Incarnation != f.incarnation {
		// A restarted publisher mints epochs from 1 again (the counter is
		// in-memory on the admin host), so its states must not lose the
		// strictly-newer comparison to the previous lineage — or a policy
		// rolled out through the documented restart path would be
		// silently ignored by every surviving follower while heartbeats
		// kept them reporting fresh. Resetting the applied epoch re-opens
		// the gate for the new incarnation; unchanged policy text is
		// still skipped below, so adopting a lineage does not churn
		// stores.
		f.incarnation = st.Incarnation
		f.epoch.Store(0)
	}
	f.mu.Unlock()
	if st.Epoch == 0 || st.Epoch <= f.epoch.Load() {
		return
	}
	if f.cfg.Ring != nil {
		for _, v := range st.Secrets {
			f.cfg.Ring.Install(v)
		}
	}
	for _, pt := range st.Policies {
		f.mu.Lock()
		store, known := f.stores[pt.Source]
		unchanged := known && f.lastText[pt.Source] == pt.Text
		f.mu.Unlock()
		if unchanged {
			// The source is back on (or never left) its last good text —
			// e.g. a publisher reverted a snapshot this node could not
			// parse — so it no longer diverges.
			f.setDiverged(pt.Source, false)
			continue
		}
		pol, err := policy.ParseString(pt.Text, pt.Source)
		if err != nil {
			// The publisher validates before broadcasting, so this is
			// wire corruption or version skew: keep the last good
			// policy for this source rather than dropping to empty. The
			// epoch still advances below (heartbeats carry the same
			// state, so retrying it is pointless), which pins this
			// source on a stale policy until the next epoch —
			// cluster_diverged_sources makes that divergence visible so
			// operators can tell it from transient sync noise.
			f.metrics.ClusterSyncFailures.Inc()
			f.setDiverged(pt.Source, true)
			continue
		}
		if !known {
			store = f.Store(pt.Source)
		}
		store.Replace(pol)
		f.mu.Lock()
		f.lastText[pt.Source] = pt.Text
		f.mu.Unlock()
		f.setDiverged(pt.Source, false)
	}
	f.mu.Lock()
	f.findings = append(f.findings[:0:0], st.Findings...)
	f.mu.Unlock()
	f.metrics.ClusterPolicyFindings.Set(int64(len(st.Findings)))
	f.epoch.Store(st.Epoch)
	f.metrics.ClusterEpoch.Set(int64(st.Epoch))
	f.metrics.ClusterSnapshotsApplied.Inc()
	f.readyOnce.Do(func() { close(f.ready) })
	if f.cfg.OnApply != nil {
		f.cfg.OnApply(st.Epoch)
	}
}

// setDiverged tracks which sources are pinned on their last good policy
// after a snapshot parse failure and keeps the gauge in step.
func (f *Follower) setDiverged(source string, bad bool) {
	f.mu.Lock()
	if bad {
		f.diverged[source] = true
	} else if !f.diverged[source] {
		f.mu.Unlock()
		return
	} else {
		delete(f.diverged, source)
	}
	n := len(f.diverged)
	f.mu.Unlock()
	f.metrics.ClusterDivergedSources.Set(int64(n))
}
