package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"gridauth/internal/gsi"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/policy/analyze"
)

// DefaultHeartbeat is how often the publisher resends the current state
// to each subscriber when nothing changes. Heartbeats are the
// followers' liveness signal: a follower's staleness clock resets on
// EVERY received state, so the staleness bound a deployment can enforce
// is floored by this interval (see StalenessGuard).
const DefaultHeartbeat = time.Second

// PublisherConfig tunes a Publisher.
type PublisherConfig struct {
	// Heartbeat is the idle resend interval (0 selects
	// DefaultHeartbeat).
	Heartbeat time.Duration
	// Metrics receives cluster_snapshots_published_total and
	// cluster_auth_failures_total. Nil selects a private, unexported
	// sink.
	Metrics *obs.Metrics
	// Auth, when set, requires every subscriber to complete the mutual
	// GSI handshake before ANY state is sent. The replicated state
	// includes the ticket-sealing secrets — a key that lets its holder
	// mint resumption tickets for arbitrary identities — so without Auth
	// the listener MUST be confined to the trusted admin network (see
	// docs/CLUSTER.md). An authenticated subscriber must present a
	// service-kind credential: user and proxy credentials issued by the
	// same CA never receive cluster state.
	Auth *gsi.Authenticator
	// Allowed, when non-empty, further restricts authenticated
	// subscribers to these verified identities. Empty admits any
	// service identity the Auth trust store verifies.
	Allowed []gsi.DN
	// Analyze configures the leader-side static semantics analysis that
	// runs over the FULL policy set on every SetPolicy. The findings are
	// stamped into the published State (so every replica sees the same
	// diagnosis of the same epoch) and counted into the
	// cluster_policy_findings gauge. The zero value enables the analysis
	// with default options; sources whose name contains "local" are
	// treated as resource-owner sources unless LocalSources says
	// otherwise.
	Analyze analyze.Options
	// FailOn, when non-zero, makes SetPolicy REFUSE a change whose
	// analysis produces a finding at or above this severity — the
	// cluster equivalent of a failing pre-publish lint. The state and
	// epoch are untouched on refusal, so followers never see the
	// offending policy.
	FailOn analyze.Severity
}

// Publisher is the leader/seed side of cluster replication: the ONE
// process where policy and ticket-secret changes enter the cluster. It
// assigns each change the next cluster epoch and pushes the full state
// to every subscribed follower, plus periodic heartbeats so followers
// can bound their staleness.
//
// There is no election: the paper's deployment model has a distinguished
// administrative host (where the VO and resource-owner policy files
// live), and that host runs the publisher. If it dies, followers serve
// their last state until the staleness bound expires, then fail closed
// — no split brain is possible because nobody else can mint epochs.
type Publisher struct {
	heartbeat time.Duration
	metrics   *obs.Metrics
	auth      *gsi.Authenticator
	allowed   []gsi.DN
	analyze   analyze.Options
	failOn    analyze.Severity

	mu        sync.Mutex
	state     State
	subs      map[chan State]struct{}
	listeners map[net.Listener]struct{}
	closed    chan struct{}
	wg        sync.WaitGroup
}

// NewPublisher creates a publisher with empty state at epoch 0 under a
// fresh incarnation ID (each publisher instance is a new lineage; see
// State.Incarnation).
func NewPublisher(cfg PublisherConfig) *Publisher {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	return &Publisher{
		heartbeat: cfg.Heartbeat,
		metrics:   cfg.Metrics,
		auth:      cfg.Auth,
		allowed:   append([]gsi.DN(nil), cfg.Allowed...),
		analyze:   cfg.Analyze,
		failOn:    cfg.FailOn,
		state:     State{Incarnation: newIncarnation()},
		subs:      make(map[chan State]struct{}),
		listeners: make(map[net.Listener]struct{}),
		closed:    make(chan struct{}),
	}
}

// newIncarnation mints a random publisher-instance ID.
func newIncarnation() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cluster: no entropy for incarnation id: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Epoch returns the last assigned cluster epoch (0 before any change).
func (p *Publisher) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.Epoch
}

// State returns a copy of the current replicated state.
func (p *Publisher) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.clone()
}

// SetPolicy installs (or replaces) the policy text of one
// administrative source, assigns the next epoch and broadcasts. The
// text is parse-validated HERE, on the leader, so a syntax error never
// reaches — let alone diverges — the followers; the full resulting
// policy set is then run through the static semantics analyzer
// (internal/policy/analyze) and the findings are stamped into the
// published state. When PublisherConfig.FailOn is set and a finding
// reaches it, the change is refused with the findings in the error and
// the cluster state stays untouched.
func (p *Publisher) SetPolicy(source, text string) (uint64, error) {
	if _, err := policy.ParseString(text, source); err != nil {
		return 0, fmt.Errorf("cluster: refusing to publish %s: %w", source, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	// Analyze the candidate set (current sources with this change
	// swapped in) before mutating anything, so a gated refusal leaves
	// the replicated state exactly as it was.
	candidate := append([]PolicyText(nil), p.state.Policies...)
	replacedAt := -1
	for i := range candidate {
		if candidate[i].Source == source {
			replacedAt = i
			break
		}
	}
	if replacedAt >= 0 {
		candidate[replacedAt].Text = text
	} else {
		candidate = append(candidate, PolicyText{Source: source, Text: text})
	}
	rep, err := analyzeSet(p.analyze, candidate)
	if err != nil {
		return 0, fmt.Errorf("cluster: refusing to publish %s: %w", source, err)
	}
	if p.failOn != 0 && rep.Count(p.failOn) > 0 {
		return 0, fmt.Errorf("cluster: refusing to publish %s: %d finding(s) at or above %s, first: %s",
			source, rep.Count(p.failOn), p.failOn, firstAtOrAbove(rep, p.failOn))
	}

	p.state.Policies = candidate
	p.state.Findings = rep.Findings
	p.metrics.ClusterPolicyFindings.Set(int64(len(rep.Findings)))
	p.state.Epoch++
	epoch := p.state.Epoch
	p.broadcastLocked()
	return epoch, nil
}

// Findings returns the analyzer findings stamped into the current
// state (those of the last successful SetPolicy).
func (p *Publisher) Findings() []analyze.Finding {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]analyze.Finding(nil), p.state.Findings...)
}

// analyzeSet compiles every source of a candidate policy set and runs
// the static analyzer over them together, so cross-source passes (the
// community-versus-local conflict detection) see the whole cluster
// policy. Texts were parse-validated when they entered the state, so a
// parse error here is a publisher bug, not an operator error.
func analyzeSet(opts analyze.Options, set []PolicyText) (*analyze.Report, error) {
	compiled := make([]*policy.Compiled, 0, len(set))
	for _, pt := range set {
		pol, err := policy.ParseString(pt.Text, pt.Source)
		if err != nil {
			return nil, err
		}
		compiled = append(compiled, policy.Compile(pol))
	}
	return analyze.With(opts, compiled...), nil
}

// firstAtOrAbove returns the first finding at or above min, for error
// messages. Findings are sorted most severe first, so it is the lead
// diagnosis.
func firstAtOrAbove(rep *analyze.Report, min analyze.Severity) string {
	for _, f := range rep.Findings {
		if f.Severity >= min {
			return f.String()
		}
	}
	return ""
}

// ShareSecret publishes one GSI ticket-secret version to the cluster
// (typically the leader ring's current secret, re-shared after every
// rotation). Followers Install it into their rings, so a resumption
// ticket sealed by any node redeems on any node. Re-sharing an
// already-known version still bumps the epoch — idempotence lives in
// SecretRing.Install, not here.
func (p *Publisher) ShareSecret(v gsi.SecretVersion) uint64 {
	key := append([]byte(nil), v.Key...)
	p.mu.Lock()
	replaced := false
	for i := range p.state.Secrets {
		if p.state.Secrets[i].ID == v.ID {
			p.state.Secrets[i].Key = key
			replaced = true
			break
		}
	}
	if !replaced {
		p.state.Secrets = append(p.state.Secrets, gsi.SecretVersion{ID: v.ID, Key: key})
	}
	p.state.Epoch++
	epoch := p.state.Epoch
	p.broadcastLocked()
	p.mu.Unlock()
	return epoch
}

// broadcastLocked hands the (just-mutated) state to every subscriber,
// coalescing: a subscriber that has not yet drained its previous
// delivery gets only the newest state. Caller holds p.mu.
func (p *Publisher) broadcastLocked() {
	st := p.state.clone()
	for ch := range p.subs {
		select {
		case <-ch: // drop the superseded pending state
		default:
		}
		select {
		case ch <- st:
		default:
			// Unreachable: the channel has capacity 1, this (mu-held)
			// loop is the only sender, and the drain above just emptied
			// it — but a provably non-blocking send keeps the
			// broadcast safe to run under p.mu.
		}
	}
}

// Serve accepts follower subscriptions on l until Close (returns nil)
// or a listener error. A publisher may serve multiple listeners.
func (p *Publisher) Serve(l net.Listener) error {
	p.mu.Lock()
	alreadyClosed := false
	select {
	case <-p.closed:
		alreadyClosed = true
	default:
		p.listeners[l] = struct{}{}
	}
	p.mu.Unlock()
	if alreadyClosed {
		l.Close()
		return nil
	}
	defer func() {
		p.mu.Lock()
		delete(p.listeners, l)
		p.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-p.closed:
				return nil
			default:
				return err
			}
		}
		// The Add must be mutually exclusive with Close observing the
		// closed channel: a bare Add here could race Close's Wait at
		// counter zero (invalid per sync.WaitGroup) and let Close return
		// while a just-accepted subscriber goroutine still runs.
		p.mu.Lock()
		accepted := false
		select {
		case <-p.closed:
		default:
			p.wg.Add(1)
			accepted = true
		}
		p.mu.Unlock()
		if !accepted {
			conn.Close()
			continue
		}
		go p.serveConn(conn)
	}
}

// serveConn streams states to one follower: the current state
// immediately on subscribe, every change as it happens, and heartbeats
// in between. After the (optional) authentication handshake followers
// never write; a broken pipe is detected on the next send (at most one
// heartbeat away).
func (p *Publisher) serveConn(conn net.Conn) {
	defer p.wg.Done()
	defer conn.Close()

	if p.auth != nil && !p.authenticate(conn) {
		return
	}

	ch := make(chan State, 1)
	p.mu.Lock()
	cur := p.state.clone()
	p.subs[ch] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.subs, ch)
		p.mu.Unlock()
	}()

	enc := json.NewEncoder(conn)
	if err := enc.Encode(cur); err != nil {
		return
	}
	p.metrics.ClusterSnapshotsPublished.Inc()

	tick := time.NewTicker(p.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-p.closed:
			return
		case st := <-ch:
			if err := enc.Encode(st); err != nil {
				return
			}
			p.metrics.ClusterSnapshotsPublished.Inc()
		case <-tick.C:
			p.mu.Lock()
			cur := p.state.clone()
			p.mu.Unlock()
			// Heartbeats are liveness, not replication: they do not
			// count toward cluster_snapshots_published_total.
			if err := enc.Encode(cur); err != nil {
				return
			}
		}
	}
}

// authenticate runs the mutual GSI handshake with a subscriber and
// checks the verified peer against the subscriber policy. It reports
// whether the connection may receive state; refusals count into
// cluster_auth_failures_total.
func (p *Publisher) authenticate(conn net.Conn) bool {
	// A silent or stalled dialer must not pin a publisher goroutine.
	_ = conn.SetDeadline(time.Now().Add(gsi.DefaultHandshakeTimeout))
	peer, _, err := p.auth.Handshake(conn)
	if err == nil {
		err = p.checkSubscriber(peer)
	}
	_ = conn.SetDeadline(time.Time{})
	if err != nil {
		p.metrics.ClusterAuthFailures.Inc()
		return false
	}
	return true
}

// checkSubscriber decides whether an authenticated peer may subscribe:
// it must hold a service-kind credential (the replicated state carries
// ticket-sealing secrets, which no user or proxy credential may see),
// and — when an allow-list is configured — appear on it.
func (p *Publisher) checkSubscriber(peer *gsi.Peer) error {
	if peer.Credential == nil || peer.Credential.Leaf().Kind != gsi.KindService {
		return fmt.Errorf("cluster: subscriber %s did not present a service credential", peer.Identity)
	}
	if len(p.allowed) == 0 {
		return nil
	}
	for _, dn := range p.allowed {
		if peer.Identity == dn {
			return nil
		}
	}
	return fmt.Errorf("cluster: subscriber %s is not in the allowed set", peer.Identity)
}

// Close stops serving: listeners close, subscriber streams terminate,
// and Serve returns. The state (and epoch counter) survive, so a
// publisher can be re-served after a listener swap.
func (p *Publisher) Close() {
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		return
	default:
	}
	close(p.closed)
	ls := make([]net.Listener, 0, len(p.listeners))
	for l := range p.listeners {
		ls = append(ls, l)
	}
	p.mu.Unlock()
	for _, l := range ls {
		_ = l.Close()
	}
	p.wg.Wait()
}
