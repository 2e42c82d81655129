package gram

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"gridauth/internal/accounts"
	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// Peer is the authenticated remote party (alias of the GSI handshake
// result).
type Peer = gsi.Peer

// Placement selects where the policy evaluation point lives (§6.2
// discusses the trade-off).
type Placement int

// PEP placements.
const (
	// PlacementJM puts the PEP in the Job Manager (the paper's design:
	// the JM parses job descriptions, so it can evaluate policy that
	// depends on the request's content). Vulnerable to JM tampering
	// because the JM runs under the user's local credential.
	PlacementJM Placement = iota + 1
	// PlacementGatekeeper puts the PEP in the Gatekeeper: tamper-proof,
	// at the cost of more complex code in the trusted component.
	PlacementGatekeeper
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case PlacementJM:
		return "job-manager"
	case PlacementGatekeeper:
		return "gatekeeper"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Config assembles a Gatekeeper.
type Config struct {
	// Credential is the gatekeeper's service credential.
	Credential *gsi.Credential
	// Trust verifies client credential chains.
	Trust *gsi.TrustStore
	// VOCerts are certificates of VOs whose assertions are accepted.
	VOCerts []*gsi.Certificate
	// GridMap is the grid-mapfile (ACL + account mapping).
	GridMap *gridmap.Map
	// Accounts is the local account layer; nil disables account rights
	// checks.
	Accounts *accounts.Manager
	// DynamicAccounts leases pool accounts for users absent from the
	// grid-mapfile (§6.1's dynamic accounts).
	DynamicAccounts bool
	// DynamicLease is the dynamic account lease duration.
	DynamicLease time.Duration
	// Registry is the authorization callout registry (required for
	// AuthzCallout).
	Registry *core.Registry
	// Audit, when set, receives a record for every callout decision the
	// gatekeeper and its JMIs act on, restoring the "security, audit,
	// accounting" trail the paper counts among fine-grain
	// authorization's repairs (§4.3). Nil disables PEP-side auditing.
	Audit *audit.Log
	// Mode selects the authorization model.
	Mode AuthzMode
	// Placement selects the PEP location in callout mode.
	Placement Placement
	// Cluster is the local job control system.
	Cluster *jobcontrol.Cluster
	// DefaultPriority is the scheduler priority for jobs that do not set
	// one.
	DefaultPriority int
	// TamperJMI makes every JMI skip its own management authorization,
	// simulating the §6.2 user-tampered job manager (test hook for E7).
	TamperJMI bool
	// OnJobStart, when set, is called after a job is successfully
	// submitted to the local scheduler, with the GRAM job contact (the
	// JobID presented to startup callouts) and the scheduler's job ID.
	// Accounting layers (e.g. the VO allocation tracker) use it to
	// rebind admission-time reservations to scheduler jobs.
	OnJobStart func(jobContact, lrmJobID string)
	// OnJobAborted, when set, is called when a job request passed the
	// authorization callout but failed a later step (account rights,
	// local scheduler), so reservations made at admission can be
	// released.
	OnJobAborted func(jobContact string)
	// TicketLifetime bounds the GSI session-resumption tickets issued
	// after full handshakes (0 selects gsi.DefaultTicketLifetime;
	// negative disables resumption). Individual tickets are further
	// clamped to the client credential's remaining validity.
	TicketLifetime time.Duration
	// TicketRing, when set, backs the resumption-ticket issuer with a
	// shared (typically cluster-replicated) secret ring instead of a
	// fresh private key, so tickets granted by this gatekeeper redeem on
	// every node holding the same ring secrets and survive node
	// restarts. Ignored when TicketLifetime is negative.
	TicketRing *gsi.SecretRing
	// Jobs, when set, is the job table this gatekeeper registers JMIs
	// in. Cluster deployments pass one shared table (plus one shared
	// Cluster) to every node so management requests for any job succeed
	// on any node; nil selects a private per-gatekeeper table.
	Jobs *JobTable
	// ConnWorkers bounds the workers, and so the requests in progress,
	// of one multiplexed connection (0 selects 8). Workers are started on
	// demand and live until the connection closes. Excess requests wait
	// on the wire in arrival order; version-1 connections are inherently
	// serial.
	ConnWorkers int
	// HandshakeTimeout bounds the GSI handshake on an accepted
	// connection (0 selects 10s; negative disables), so a client that
	// connects and stalls cannot pin a gatekeeper goroutine.
	HandshakeTimeout time.Duration
	// IdleTimeout closes an authenticated connection that carries no
	// client traffic for the duration, or whose peer leaves a reply
	// unread for it (0 selects 5m; negative disables). Subscription
	// streams are exempt: they are server-push by design.
	IdleTimeout time.Duration
	// Metrics, when set, receives the gatekeeper's operational counters
	// and gauges (requests, in-flight, connections, worker-queue depth,
	// handshake outcomes) in addition to whatever the registry itself
	// reports. Nil disables.
	Metrics *obs.Metrics
	// Traces, when set, retains a decision trace for every dispatched
	// request, retrievable by the RequestID the request's audit records
	// carry. Nil disables tracing (requests still get a RequestID).
	Traces *obs.TraceStore
}

// Gatekeeper is the resource-side GRAM daemon: it authenticates clients,
// authorizes and maps job requests, creates Job Manager Instances and
// routes management traffic to them (Figures 1 and 2).
type Gatekeeper struct {
	cfg  Config
	auth *gsi.Authenticator

	mu    sync.Mutex
	jobs  *JobTable
	conns map[net.Conn]struct{}
	hub   *watchHub

	listener net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}

	// baseCtx is the root of every per-request context; cancelBase fires
	// in Close so in-flight policy evaluations (context-aware PDPs)
	// stop with the daemon.
	baseCtx    context.Context
	cancelBase context.CancelFunc
}

// NewGatekeeper validates the configuration and builds a gatekeeper.
func NewGatekeeper(cfg Config) (*Gatekeeper, error) {
	if cfg.Credential == nil || cfg.Trust == nil {
		return nil, errors.New("gram: gatekeeper needs a credential and a trust store")
	}
	if cfg.GridMap == nil {
		return nil, errors.New("gram: gatekeeper needs a grid-mapfile")
	}
	if cfg.Cluster == nil {
		return nil, errors.New("gram: gatekeeper needs a local job control system")
	}
	if cfg.Mode == 0 {
		cfg.Mode = AuthzLegacy
	}
	if cfg.Placement == 0 {
		cfg.Placement = PlacementJM
	}
	if cfg.Mode == AuthzCallout && cfg.Registry == nil {
		return nil, errors.New("gram: callout mode needs a registry")
	}
	if cfg.DynamicLease == 0 {
		cfg.DynamicLease = 8 * time.Hour
	}
	if cfg.ConnWorkers <= 0 {
		cfg.ConnWorkers = 8
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = gsi.DefaultHandshakeTimeout
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	opts := []gsi.AuthOption{gsi.WithFeatures(FeatureMux)}
	if cfg.Metrics != nil {
		opts = append(opts, gsi.WithMetrics(cfg.Metrics))
	}
	for _, c := range cfg.VOCerts {
		opts = append(opts, gsi.WithVOCert(c))
	}
	if cfg.TicketLifetime >= 0 {
		var issuer *gsi.TicketIssuer
		if cfg.TicketRing != nil {
			issuer = gsi.NewTicketIssuerWithRing(cfg.TicketRing, cfg.TicketLifetime)
		} else {
			var err error
			issuer, err = gsi.NewTicketIssuer(cfg.TicketLifetime)
			if err != nil {
				return nil, fmt.Errorf("gram: %w", err)
			}
		}
		opts = append(opts, gsi.WithTicketIssuer(issuer))
	}
	if cfg.Jobs == nil {
		cfg.Jobs = NewJobTable()
	}
	baseCtx, cancelBase := context.WithCancel(context.Background())
	return &Gatekeeper{
		cfg:        cfg,
		auth:       gsi.NewAuthenticator(cfg.Credential, cfg.Trust, opts...),
		jobs:       cfg.Jobs,
		conns:      make(map[net.Conn]struct{}),
		hub:        newWatchHub(cfg.Cluster),
		closed:     make(chan struct{}),
		baseCtx:    baseCtx,
		cancelBase: cancelBase,
	}, nil
}

// Serve accepts connections on l until Close is called. It returns after
// the accept loop ends; per-connection goroutines are waited for by
// Close.
func (g *Gatekeeper) Serve(l net.Listener) error {
	g.mu.Lock()
	g.listener = l
	// Close may have run before the listener was registered, in which
	// case it had nothing to close and the accept loop below would block
	// forever on a listener nobody will ever shut.
	alreadyClosed := false
	select {
	case <-g.closed:
		alreadyClosed = true
	default:
	}
	g.mu.Unlock()
	if alreadyClosed {
		_ = l.Close()
		return nil
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-g.closed:
				return nil
			default:
				return fmt.Errorf("gram: accept: %w", err)
			}
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.handleConn(conn)
		}()
	}
}

// Close stops the accept loop, severs every active connection and waits
// for connection handlers to drain.
func (g *Gatekeeper) Close() {
	g.mu.Lock()
	select {
	case <-g.closed:
	default:
		close(g.closed)
	}
	l := g.listener
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	g.cancelBase()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	g.wg.Wait()
}

// track registers a live connection; the returned func forgets it.
func (g *Gatekeeper) track(conn net.Conn) func() {
	g.mu.Lock()
	g.conns[conn] = struct{}{}
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
	}
}

// JobCount returns the number of JMIs in the gatekeeper's job table
// (the shared total when the table is cluster-shared).
func (g *Gatekeeper) JobCount() int {
	return g.jobs.Len()
}

// Job returns the JMI for a contact (test and tooling hook).
func (g *Gatekeeper) Job(contact string) (*JMI, bool) {
	return g.jobs.Lookup(contact)
}

func (g *Gatekeeper) handleConn(conn net.Conn) {
	defer conn.Close()
	defer g.track(conn)()
	if g.cfg.HandshakeTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(g.cfg.HandshakeTimeout))
	}
	peer, br, err := g.auth.HandshakeAccept(conn)
	if err != nil {
		// The handshake failed; there is no authenticated channel to
		// report the error on, matching GT2 behaviour.
		return
	}
	_ = conn.SetDeadline(time.Time{})
	if m := g.cfg.Metrics; m != nil {
		m.ConnsActive.Inc()
		defer m.ConnsActive.Dec()
	}

	// Replies are written under writeMu, each bounded by IdleTimeout: a
	// peer that stops reading must not park the writer, and with it
	// every worker and the reader, behind a full socket buffer where the
	// read-side idle timer can no longer fire.
	var writeMu sync.Mutex
	write := func(m *Message) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		if g.cfg.IdleTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(g.cfg.IdleTimeout))
		}
		return WriteMessage(conn, m)
	}

	// A version-2 peer gets workers so many requests on the one
	// connection are served concurrently; a version-1 peer gets the
	// original serial loop (it could not correlate replies anyway).
	// Workers live as long as the connection: the reader starts one per
	// request it cannot hand to a parked worker, up to ConnWorkers, and
	// from then on a request costs one hand-off on the unbuffered reqs
	// channel instead of a goroutine and the regrowth of its stack.
	mux := peer.HasFeature(FeatureMux)
	var (
		reqs    = make(chan *Message)
		workers sync.WaitGroup
		started int // workers running; the reader's alone
	)
	work := func(msg *Message) {
		defer workers.Done()
		for ok := true; ok; msg, ok = <-reqs {
			reply := g.dispatch(peer, msg)
			reply.ID = msg.ID
			if write(reply) != nil {
				// The peer is gone or not reading: fail the reader's
				// next read too, so the connection is torn down.
				_ = conn.Close()
			}
		}
	}
	// drain lets every request handed to a worker finish and be replied
	// to, and the workers exit.
	drain := sync.OnceFunc(func() {
		close(reqs)
		workers.Wait()
	})
	defer drain()
	for {
		if g.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(g.cfg.IdleTimeout))
		}
		msg, err := ReadMessage(br)
		if err != nil {
			switch {
			case errors.Is(err, ErrMalformedMessage):
				// The frame was complete but undecodable; framing is
				// intact, so report the error and keep serving.
				if write(&Message{
					Type: MsgJobReply,
					Err:  &ProtoError{Code: CodeBadRSL, Message: err.Error()},
				}) == nil {
					continue
				}
				return
			case errors.Is(err, ErrMessageTooLarge):
				// Framing is lost (the rest of the oversized line was
				// never consumed): report, then hang up.
				_ = write(&Message{
					Type: MsgJobReply,
					Err:  &ProtoError{Code: CodeInternal, Message: err.Error()},
				})
				return
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed), isTimeout(err):
				return
			default:
				_ = write(&Message{
					Type: MsgJobReply,
					Err:  &ProtoError{Code: CodeInternal, Message: err.Error()},
				})
				return
			}
		}
		if msg.Type == MsgSubscribe {
			// Subscriptions take over the connection for streaming: let
			// in-flight replies drain, then lift both deadlines — the
			// stream is server-push and a quiet subscriber is not idle.
			drain()
			_ = conn.SetDeadline(time.Time{})
			g.handleSubscribe(peer, msg, conn)
			return
		}
		if !mux {
			if write(g.dispatch(peer, msg)) != nil {
				return
			}
			continue
		}
		select {
		case reqs <- msg: // a parked worker takes it
			continue
		default:
		}
		if started < g.cfg.ConnWorkers {
			started++
			workers.Add(1)
			go work(msg)
			continue
		}
		// Backpressure: every worker is busy, so block reads at the
		// bound. The gauge counts readers blocked here; sampled by
		// /metrics, nonzero sustained values mean ConnWorkers is the
		// bottleneck.
		if m := g.cfg.Metrics; m != nil {
			m.QueueWaiting.Inc()
			reqs <- msg
			m.QueueWaiting.Dec()
		} else {
			reqs <- msg
		}
	}
}

// dispatch authorizes and executes one request message, returning the
// reply (never nil). Each message gets its own context rooted in the
// daemon's, so policy evaluation for one request is cancellable
// independently and everything stops when the gatekeeper closes.
//
// Every request is assigned a RequestID here — the single generation
// point, so all audit records of one request carry the same ID and IDs
// never interleave across concurrent requests. When tracing is enabled
// a Trace rides the same context; it is published to the store when the
// request finishes, whatever the outcome (even requests refused before
// any callout ran appear, with zero spans and no summary).
func (g *Gatekeeper) dispatch(peer *Peer, msg *Message) *Message {
	reqCtx, cancelReq := context.WithCancel(g.baseCtx)
	defer cancelReq()
	rid := obs.NewRequestID()
	reqCtx = obs.WithRequestID(reqCtx, rid)
	if g.cfg.Traces != nil {
		tr := obs.NewTrace(rid, string(peer.Identity))
		reqCtx = obs.WithTrace(reqCtx, tr)
		defer g.cfg.Traces.Publish(tr)
	}
	if m := g.cfg.Metrics; m != nil {
		m.Requests.Inc()
		m.RequestsInflight.Inc()
		defer m.RequestsInflight.Dec()
	}
	switch msg.Type {
	case MsgJobRequest:
		return g.handleJobRequest(reqCtx, peer, msg)
	case MsgManage:
		return g.handleManage(reqCtx, peer, msg)
	default:
		return &Message{
			Type: MsgManageReply,
			Err:  &ProtoError{Code: CodeInternal, Message: fmt.Sprintf("unknown message type %q", msg.Type)},
		}
	}
}

// isTimeout reports whether err is a network deadline expiry (the idle
// timeout firing), which warrants a silent close rather than an error
// reply.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handleJobRequest implements the Figure 1/2 startup path:
// authentication has already happened; now authorization, account
// mapping, JMI creation and job submission.
func (g *Gatekeeper) handleJobRequest(ctx context.Context, peer *Peer, msg *Message) *Message {
	fail := func(perr *ProtoError) *Message {
		return &Message{Type: MsgJobReply, Err: perr}
	}
	if peer.Limited {
		// GT2 gatekeepers refuse job startup with limited proxies.
		return fail(&ProtoError{Code: CodeAuthentication, Message: "limited proxy may not start jobs"})
	}

	// Parse and validate the RSL job description.
	spec, err := rsl.ParseSpec(msg.RSL)
	if err != nil {
		return fail(&ProtoError{Code: CodeBadRSL, Message: err.Error()})
	}
	if err := rsl.Validate(spec); err != nil {
		return fail(&ProtoError{Code: CodeBadRSL, Message: err.Error()})
	}

	// Stock GT2 authorization: presence in the grid-mapfile. With
	// dynamic accounts the mapping step can create an account instead,
	// relieving shortcoming (5).
	account, mapped := g.cfg.GridMap.LookupAccount(peer.Identity, msg.Account)
	if !mapped {
		if !g.cfg.DynamicAccounts || g.cfg.Accounts == nil {
			return fail(&ProtoError{
				Code:    CodeNoLocalAccount,
				Message: fmt.Sprintf("no grid-mapfile entry maps %s (requested account %q)", peer.Identity, msg.Account),
			})
		}
		lease, lerr := g.cfg.Accounts.Lease(peer.Identity, rightsFromSpec(spec), g.cfg.DynamicLease)
		if lerr != nil {
			return fail(&ProtoError{Code: CodeNoLocalAccount, Message: lerr.Error()})
		}
		account = lease.Name
	}

	// Allocate the GRAM job contact before authorization so callouts
	// (and any accounting they do) see a stable job identifier. The ID
	// comes from the job table, so contacts stay unique across every
	// gatekeeper sharing it.
	contact := fmt.Sprintf("gram://%s/job/%d", g.cfg.Credential.Identity().CN(), g.jobs.next())
	abort := func(perr *ProtoError) *Message {
		if g.cfg.OnJobAborted != nil {
			g.cfg.OnJobAborted(contact)
		}
		return fail(perr)
	}

	// The paper's extension: evaluate the start request against the
	// callout chain before creating the job manager request.
	if g.cfg.Mode == AuthzCallout {
		req := &core.Request{
			Subject:    peer.Identity,
			Assertions: peer.Assertions,
			Action:     policy.ActionStart,
			JobID:      contact,
			Spec:       spec,
			Account:    account,
		}
		calloutType := core.CalloutJobManager
		if g.cfg.Placement == PlacementGatekeeper {
			calloutType = core.CalloutGatekeeper
		}
		d := g.cfg.Registry.InvokeContext(ctx, calloutType, req)
		auditDecision(ctx, g.cfg.Audit, calloutType, req, d)
		if perr := decisionToProto(d); perr != nil {
			return fail(perr)
		}
	}

	// Local enforcement vehicle: the account's coarse rights (§4.3(4)).
	if g.cfg.Accounts != nil {
		if acct, err := g.cfg.Accounts.Lookup(account); err == nil {
			count := 1
			if spec.Has("count") {
				count, _ = strconv.Atoi(spec.Get("count"))
			}
			disk := 0
			if spec.Has("disk") {
				disk, _ = strconv.Atoi(spec.Get("disk"))
			}
			var wall time.Duration
			if spec.Has("maxtime") {
				m, _ := strconv.Atoi(spec.Get("maxtime"))
				wall = time.Duration(m) * time.Minute
			}
			if err := acct.CheckJob(count, disk, wall); err != nil {
				return abort(&ProtoError{Code: CodeAuthorizationDenied, Source: "local-account", Message: err.Error()})
			}
		}
	}

	// Create the Job Manager Instance and submit the job.
	jmi := &JMI{
		Contact:  contact,
		Owner:    peer.Identity,
		Account:  account,
		Spec:     spec,
		mode:     g.cfg.Mode,
		registry: g.cfg.Registry,
		auditLog: g.cfg.Audit,
		cluster:  g.cfg.Cluster,
		tampered: g.cfg.TamperJMI,
	}
	g.jobs.add(contact, jmi)

	if perr := jmi.start(g.cfg.DefaultPriority); perr != nil {
		g.jobs.remove(contact)
		return abort(perr)
	}
	g.hub.register(jmi.LRMJobID(), contact)
	if g.cfg.OnJobStart != nil {
		g.cfg.OnJobStart(contact, jmi.LRMJobID())
	}
	return &Message{Type: MsgJobReply, Contact: contact}
}

// rightsFromSpec derives the per-request account configuration for a
// dynamic lease — §6.1: "account configuration relevant to policies for a
// particular resource management request".
func rightsFromSpec(spec *rsl.Spec) accounts.Rights {
	r := accounts.Rights{}
	if spec.Has("count") {
		if n, err := strconv.Atoi(spec.Get("count")); err == nil {
			r.MaxCPUs = n
		}
	}
	if spec.Has("disk") {
		if n, err := strconv.Atoi(spec.Get("disk")); err == nil {
			r.DiskQuotaMB = n
		}
	}
	if spec.Has("maxtime") {
		if n, err := strconv.Atoi(spec.Get("maxtime")); err == nil {
			r.MaxWallTime = time.Duration(n) * time.Minute
		}
	}
	return r
}

// handleManage routes a management request to the job's JMI. With the
// PEP placed in the Gatekeeper, authorization happens here — in the
// trusted component — and the JMI is told to skip its own check; the
// trade-off §6.2 describes.
func (g *Gatekeeper) handleManage(ctx context.Context, peer *Peer, msg *Message) *Message {
	jmi, ok := g.jobs.Lookup(msg.JobContact)
	if !ok {
		return manageError(&ProtoError{Code: CodeNoSuchJob, Message: fmt.Sprintf("no job %q", msg.JobContact)})
	}
	if g.cfg.Mode == AuthzCallout && g.cfg.Placement == PlacementGatekeeper {
		action := manageToPolicyAction(msg.Action)
		if action == "" {
			return manageError(&ProtoError{Code: CodeInternal, Message: fmt.Sprintf("unknown action %q", msg.Action)})
		}
		req := &core.Request{
			Subject:    peer.Identity,
			Assertions: peer.Assertions,
			Action:     action,
			JobID:      jmi.Contact,
			JobOwner:   jmi.Owner,
			Spec:       jmi.Spec,
		}
		d := g.cfg.Registry.InvokeContext(ctx, core.CalloutGatekeeper, req)
		auditDecision(ctx, g.cfg.Audit, core.CalloutGatekeeper, req, d)
		if perr := decisionToProtoManagement(d); perr != nil {
			return manageError(perr)
		}
		return jmi.managePreauthorized(msg)
	}
	return jmi.ManageContext(ctx, peer, msg)
}
