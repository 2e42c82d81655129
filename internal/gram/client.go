package gram

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"

	"gridauth/internal/gsi"
	"gridauth/internal/jsonwire"
	"gridauth/internal/resilience"
)

// JobStatus is the client's view of a managed job. The Owner field is the
// paper's client-side extension: "allowing it to recognize the identity
// of the job originator", which a VO manager needs when acting on jobs
// they did not start.
type JobStatus struct {
	Contact string
	State   JobState
	Owner   gsi.DN
	Detail  string
}

// Client is the GRAM client library (the globusrun role): it
// authenticates to a gatekeeper with the user's (proxy) credential and VO
// assertions, submits jobs and issues management requests.
//
// The client multiplexes: concurrent calls share one authenticated
// connection, correlated by Message.ID, with a demux goroutine routing
// replies to their callers. It therefore requires a gatekeeper that
// announces FeatureMux in the GSI handshake (protocol version 2) and
// refuses any other. Connections are established by GSI session
// resumption where possible (see gsi.SessionCache), so reconnecting
// skips chain verification.
type Client struct {
	addr     string
	auth     *gsi.Authenticator
	sessions *gsi.SessionCache
	dial     func(network, addr string) (net.Conn, error) // net.Dial, or a test's wrapper

	// addrs (guarded by mu) is the optional failover address list: the
	// gatekeeper nodes of a federated cluster fronting ONE resource (see
	// docs/CLUSTER.md). When set, every failed connection attempt — and
	// every CodeAuthorizationUnavailable management reply — rotates to
	// the next node before the retry policy re-dials, and failures
	// become transient as long as another node may answer. addrIdx is
	// the round-robin cursor.
	addrs   []string
	addrIdx int

	// retry (guarded by mu) is the ONE policy governing both of the
	// client's recovery paths: redialing when a GSI session resumption
	// dies mid-handshake or the connection resets, and re-asking when a
	// management reply carries the retryable
	// CodeAuthorizationUnavailable. See SetRetryPolicy.
	retry resilience.Policy

	// mu guards the connection lifecycle, the pending map and the free
	// reply slots.
	mu      sync.Mutex
	conn    net.Conn
	resumed bool
	gen     int // connection generation, so a stale teardown is a no-op
	nextID  uint64
	pending map[uint64]*replySlot
	free    []*replySlot // slots whose reply was taken, for the next calls

	// writeMu serializes frame writes on the connection.
	writeMu sync.Mutex
}

// NewClient creates a client for the gatekeeper at addr, authenticating
// with cred and presenting the given VO assertions.
func NewClient(addr string, cred *gsi.Credential, trust *gsi.TrustStore, assertions ...*gsi.Assertion) *Client {
	sessions := gsi.NewSessionCache()
	opts := []gsi.AuthOption{
		gsi.WithSessionCache(sessions),
		gsi.WithFeatures(FeatureMux),
	}
	if len(assertions) > 0 {
		opts = append(opts, gsi.WithAssertions(assertions...))
	}
	return &Client{
		addr:     addr,
		auth:     gsi.NewAuthenticator(cred, trust, opts...),
		sessions: sessions,
		dial:     net.Dial,
		pending:  make(map[uint64]*replySlot),
		// Two attempts preserves the historical "retry a failed session
		// resumption once" behavior and gives management requests one
		// backed-off retry when the authorization system is degraded.
		retry: resilience.Policy{Attempts: 2},
	}
}

// SetRetryPolicy replaces the client's retry policy. Per the degraded-
// mode design there is deliberately one policy, not two: transient
// transport failures (connection reset during a resumed handshake) and
// transient authorization failures (CodeAuthorizationUnavailable on a
// management reply) are the same class of fault — the far side is
// momentarily undecided, not refusing — and should be paced the same
// way. Policy{Attempts: 1} disables retries entirely.
//
//authlint:ignore deadexport TestClusterSoak, TestStaleFollowerAnswersErrorNotDeny and TestChaosSoak pace their clients with it
func (c *Client) SetRetryPolicy(p resilience.Policy) {
	c.mu.Lock()
	c.retry = p
	c.mu.Unlock()
}

// SetFailover installs the cluster's gatekeeper address list. The
// client dials the nodes round-robin: the first address is preferred,
// and every connection failure or retryable authorization outage
// advances to the next node. Cached GSI sessions are keyed by the
// FIRST address regardless of which node answers, so a resumption
// ticket granted by one node is presented to — and, with a replicated
// ticket-secret ring, honored by — any other. Calling SetFailover with
// no arguments reverts to single-address operation.
//
//authlint:ignore deadexport TestClusterSoak's spurious-permit detector fails its clients over with it
func (c *Client) SetFailover(addrs ...string) {
	c.mu.Lock()
	c.addrs = append([]string(nil), addrs...)
	c.addrIdx = 0
	c.mu.Unlock()
}

// target returns the address the next connection attempt should dial.
// Caller holds c.mu.
func (c *Client) target() string {
	if len(c.addrs) > 0 {
		return c.addrs[c.addrIdx%len(c.addrs)]
	}
	return c.addr
}

// advance rotates to the next failover address. Caller holds c.mu.
func (c *Client) advance() {
	if len(c.addrs) > 1 {
		c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
	}
}

// sessionKey is the session-cache key for handshakes: stable across
// failover so a ticket granted by one cluster node resumes on another.
// Caller holds c.mu.
func (c *Client) sessionKey() string {
	if len(c.addrs) > 0 {
		return c.addrs[0]
	}
	return c.addr
}

// open establishes a new authenticated connection to a gatekeeper that
// announces FeatureMux, resuming a cached GSI session when possible. A
// resumption attempt that dies mid-protocol (say, the server restarted
// and lost its ticket key *and* the connection) or a connection reset
// during the handshake is transient: the failed attempt already
// invalidated the session, so a retry — paced by the client's retry
// policy — runs a full handshake on a fresh connection. A plain dial
// refusal (nothing listening, unreachable host) or a gatekeeper without
// FeatureMux is NOT transient and fails fast — unless a failover list is
// configured, in which case every failure rotates to the next node and
// stays transient: some surviving node may still answer, and the retry
// policy bounds how long the client hunts. Caller holds c.mu.
func (c *Client) open() (net.Conn, *bufio.Reader, *gsi.Peer, error) {
	var (
		conn net.Conn
		br   *bufio.Reader
		peer *gsi.Peer
	)
	err := c.retry.Do(context.Background(), func(int) (error, bool) {
		addr := c.target()
		failover := len(c.addrs) > 1
		nc, err := c.dial("tcp", addr)
		if err != nil {
			c.advance()
			return fmt.Errorf("gram: dial %s: %w", addr, err), failover
		}
		p, r, err := c.auth.HandshakeClient(nc, c.sessionKey())
		if err == nil {
			if p.HasFeature(FeatureMux) {
				conn, br, peer = nc, r, p
				return nil, false
			}
			jsonwire.PutReader(r)
			err = fmt.Errorf("gatekeeper does not announce %s (GRAM protocol version 2)", FeatureMux)
		}
		nc.Close()
		c.advance()
		transient := failover ||
			errors.Is(err, gsi.ErrResumeFailed) || errors.Is(err, syscall.ECONNRESET)
		return fmt.Errorf("gram: authenticate to %s: %w", addr, err), transient
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return conn, br, peer, nil
}

// connect establishes (or reuses) the authenticated channel. Caller
// holds c.mu.
func (c *Client) connect() error {
	if c.conn != nil {
		return nil
	}
	conn, br, peer, err := c.open()
	if err != nil {
		return err
	}
	c.conn = conn
	c.resumed = peer.Resumed
	c.gen++
	go c.readLoop(br, c.gen)
	return nil
}

// replySlot is where readLoop leaves the reply to one pending call.
// A slot is reused, by a later call, once its caller has received the
// reply; a slot that resetLocked closed is never handed out again.
type replySlot struct {
	msg  Message
	done chan struct{} // a value: msg holds the reply; closed: the connection was lost
}

// slotLocked returns a free reply slot, or a new one. Caller holds c.mu.
func (c *Client) slotLocked() *replySlot {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	return &replySlot{done: make(chan struct{}, 1)}
}

// readLoop demultiplexes replies on the connection, leaving each in
// the slot of the caller registered under its ID. On read failure it
// tears down its own generation of the connection, which fails all
// in-flight calls.
func (c *Client) readLoop(br *bufio.Reader, gen int) {
	var m Message
	for {
		if err := readMessage(br, &m); err != nil {
			c.teardown(gen)
			jsonwire.PutReader(br)
			return
		}
		c.mu.Lock()
		s, ok := c.pending[m.ID]
		if ok {
			delete(c.pending, m.ID)
		}
		c.mu.Unlock()
		if ok {
			s.msg = m
			s.done <- struct{}{}
		}
	}
}

// teardown resets the connection if it is still generation gen; a newer
// connection is left alone.
func (c *Client) teardown(gen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen {
		c.resetLocked() //authlint:ignore locksafe c.mu is this client's own lifecycle lock, not an authorization-path shard; Close here only tears down an already-broken conn
	}
}

// Close tears down the connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked() //authlint:ignore locksafe client lifecycle lock; serializing Close against in-flight dials is the point
}

// resetLocked drops the connection state; pending callers observe their
// reply slot closing, and the slot is theirs to drop.
func (c *Client) resetLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.conn = nil
	c.resumed = false
	for id, s := range c.pending {
		delete(c.pending, id)
		close(s.done)
	}
}

// Resumed reports whether the client's current connection was
// authenticated by GSI session resumption rather than a full handshake
// (observability hook; false when disconnected).
//
//authlint:ignore deadexport TestClusterSoak and TestConformanceScenariosResumedSession check session resumption with it
func (c *Client) Resumed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn != nil && c.resumed
}

// roundTrip sends one message and awaits its reply; any number of round
// trips proceed concurrently on the one connection. The reply comes by
// value out of a reply slot, which goes back on the free list once
// received; a failed write leaves it to the teardown that closes it.
func (c *Client) roundTrip(m *Message) (Message, error) {
	c.mu.Lock()
	if err := c.connect(); err != nil { //authlint:ignore locksafe dialing under c.mu is deliberate: concurrent round trips must share one connection, so the first caller dials while the rest wait
		c.mu.Unlock()
		return Message{}, err
	}
	c.nextID++
	m.ID = c.nextID
	s := c.slotLocked()
	c.pending[m.ID] = s
	conn := c.conn
	gen := c.gen
	c.mu.Unlock()

	c.writeMu.Lock()
	err := WriteMessage(conn, m)
	c.writeMu.Unlock()
	if err != nil {
		c.teardown(gen)
		return Message{}, err
	}
	if _, ok := <-s.done; !ok {
		return Message{}, errors.New("gram: connection lost awaiting reply")
	}
	reply := s.msg
	c.mu.Lock()
	c.free = append(c.free, s)
	c.mu.Unlock()
	return reply, nil
}

// manageRoundTrip is roundTrip for management requests: a reply whose
// error is the retryable CodeAuthorizationUnavailable (the
// authorization system failed transiently while deciding — callout
// timeout, open circuit breaker) is re-asked under the client's retry
// policy with backoff. With a failover list configured the retry does
// not re-ask the same struggling node: the connection is dropped and
// the cursor advanced, so the next attempt lands on the next cluster
// node (which, sharing the job table, can answer for the same job).
// Transport errors are not retried here; the next call transparently
// reconnects. Submit does NOT go through this path: an undecidable
// startup is fail-closed and final (see decisionToProto).
func (c *Client) manageRoundTrip(m *Message) (Message, error) {
	c.mu.Lock()
	pol := c.retry
	c.mu.Unlock()
	var (
		reply   Message
		replied bool // the last attempt got a reply
	)
	err := pol.Do(context.Background(), func(int) (error, bool) {
		r, err := c.roundTrip(m)
		if replied = err == nil; !replied {
			return err, false
		}
		reply = r
		if r.Err != nil && r.Err.Code == CodeAuthorizationUnavailable {
			c.mu.Lock()
			if len(c.addrs) > 1 {
				c.resetLocked() //authlint:ignore locksafe client lifecycle lock; dropping the conn to a degraded node before failing over is the point
				c.advance()
			}
			c.mu.Unlock()
			return r.Err, true
		}
		return nil, false
	})
	if !replied {
		return Message{}, err
	}
	return reply, nil
}

// Submit sends a job request with the given RSL text and optional
// account, returning the job contact.
func (c *Client) Submit(rslText, account string) (string, error) {
	reply, err := c.roundTrip(&Message{Type: MsgJobRequest, RSL: rslText, Account: account})
	if err != nil {
		return "", err
	}
	if reply.Err != nil {
		return "", reply.Err
	}
	if reply.Contact == "" {
		return "", errors.New("gram: reply carried no job contact")
	}
	return reply.Contact, nil
}

// Status queries a job. Any authenticated user may ask; policy decides.
func (c *Client) Status(contact string) (JobStatus, error) {
	reply, err := c.manageRoundTrip(&Message{Type: MsgManage, JobContact: contact, Action: ManageStatus})
	if err != nil {
		return JobStatus{}, err
	}
	if reply.Err != nil {
		return JobStatus{}, reply.Err
	}
	return JobStatus{
		Contact: contact,
		State:   JobState(reply.State),
		Owner:   gsi.DN(reply.Owner),
		Detail:  reply.Detail,
	}, nil
}

// Cancel terminates a job.
func (c *Client) Cancel(contact string) error {
	reply, err := c.manageRoundTrip(&Message{Type: MsgManage, JobContact: contact, Action: ManageCancel})
	if err != nil {
		return err
	}
	if reply.Err != nil {
		return reply.Err
	}
	return nil
}

// Signal sends a job management signal (suspend, resume, priority).
func (c *Client) Signal(contact, signal, arg string) error {
	reply, err := c.manageRoundTrip(&Message{
		Type:       MsgManage,
		JobContact: contact,
		Action:     ManageSignal,
		Signal:     signal,
		SignalArg:  arg,
	})
	if err != nil {
		return err
	}
	if reply.Err != nil {
		return reply.Err
	}
	return nil
}

// IsAuthorizationDenied reports whether err is a GRAM authorization
// denial (as opposed to a system failure or transport error).
func IsAuthorizationDenied(err error) bool {
	var pe *ProtoError
	return errors.As(err, &pe) && pe.Code == CodeAuthorizationDenied
}

// IsAuthorizationFailure reports whether err is an authorization system
// failure.
//
//authlint:ignore deadexport cluster_soak_test.go, cluster_stale_test.go and resilience_soak_test.go classify errors with it
func IsAuthorizationFailure(err error) bool {
	var pe *ProtoError
	return errors.As(err, &pe) && pe.Code == CodeAuthorizationFailure
}

// IsAuthorizationUnavailable reports whether err is the RETRYABLE
// authorization failure surfaced for management requests: the
// authorization system failed transiently while deciding, nothing was
// decided about the job, and a later retry may succeed. Callers that
// exhaust their retry budget can distinguish "the grid said no"
// (IsAuthorizationDenied) from "the grid could not answer" with this.
//
//authlint:ignore deadexport cluster_soak_test.go, cluster_stale_test.go and resilience_soak_test.go classify errors with it
func IsAuthorizationUnavailable(err error) bool {
	var pe *ProtoError
	return errors.As(err, &pe) && pe.Code == CodeAuthorizationUnavailable
}
