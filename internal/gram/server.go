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
	"gridauth/internal/allocation"
	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/jsonwire"
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

// dynamicLease is how long a dynamic account (§6.1) is leased to a user
// the grid-mapfile does not map.
const dynamicLease = 8 * time.Hour

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
	// checks. When it has a dynamic pool, users absent from the
	// grid-mapfile lease a pool account (§6.1's dynamic accounts), each
	// for dynamicLease.
	Accounts *accounts.Manager
	// Registry is the authorization callout registry (required for
	// AuthzCallout). Its trace store (core.Registry.SetTraces), when
	// set, retains a decision trace for every dispatched request.
	Registry *core.Registry
	// Audit, when set, receives a record for every callout decision the
	// gatekeeper and its JMIs act on, restoring the "security, audit,
	// accounting" trail the paper counts among fine-grain
	// authorization's repairs (§4.3). Nil disables PEP-side auditing.
	Audit *audit.Log
	// Mode selects the authorization model (0 selects AuthzLegacy).
	Mode AuthzMode
	// Placement selects the PEP location in callout mode (0 selects
	// PlacementJM).
	Placement Placement
	// Cluster is the local job control system.
	Cluster *jobcontrol.Cluster
	// TamperJMI makes every JMI skip its own management authorization,
	// simulating the §6.2 user-tampered job manager (test hook for E7).
	// A PEP in the Gatekeeper is out of the user's reach and unaffected.
	TamperJMI bool
	// Allocation, when set, is the VO allocation tracker whose
	// admission-time reservations (made under the GRAM job contact, the
	// JobID startup callouts see) follow each job: rebound to the
	// scheduler's job ID once the job is submitted, released when a
	// request that passed the callout fails a later step (account
	// rights, local scheduler).
	Allocation *allocation.Tracker
	// TicketRing, when set, backs the resumption-ticket issuer with a
	// shared (typically cluster-replicated) secret ring instead of a
	// fresh private key, so tickets granted by this gatekeeper redeem on
	// every node holding the same ring secrets and survive node
	// restarts. Tickets live gsi.DefaultTicketLifetime, clamped to the
	// client credential's remaining validity.
	TicketRing *gsi.SecretRing
	// Jobs, when set, is the job table this gatekeeper registers JMIs
	// in. Cluster deployments pass one shared table (plus one shared
	// Cluster) to every node so management requests for any job succeed
	// on any node; nil selects a private per-gatekeeper table.
	Jobs *JobTable
	// ConnWorkers bounds the workers, and so the requests in progress,
	// of one multiplexed connection (0 selects 8). Workers are started on
	// demand and live until the connection closes. Excess requests wait
	// on the wire in arrival order. A peer that did not announce
	// FeatureMux gets one worker, so its replies keep request order.
	ConnWorkers int
	// Metrics, when set, receives the gatekeeper's operational counters
	// and gauges (requests, in-flight, connections, worker-queue depth,
	// handshake outcomes) in addition to whatever the registry itself
	// reports. Nil disables.
	Metrics *obs.Metrics

	// idleTimeout closes an authenticated connection that carries no
	// client traffic for the duration, or whose peer leaves a reply
	// unread for it (0 selects defaultIdleTimeout). Only tests shorten it.
	idleTimeout time.Duration
}

// defaultIdleTimeout is how long an authenticated connection may stay
// silent, or leave a reply unread, before the gatekeeper closes it.
const defaultIdleTimeout = 5 * time.Minute

// Gatekeeper is the resource-side GRAM daemon: it authenticates clients,
// authorizes and maps job requests, creates Job Manager Instances and
// routes management traffic to them (Figures 1 and 2).
type Gatekeeper struct {
	cfg  Config
	auth *gsi.Authenticator
	srv  *gsi.Server

	jobs *JobTable
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
	if cfg.Mode != AuthzLegacy && cfg.Mode != AuthzCallout {
		return nil, fmt.Errorf("gram: unknown authorization mode %s", cfg.Mode)
	}
	if cfg.Placement != PlacementJM && cfg.Placement != PlacementGatekeeper {
		return nil, fmt.Errorf("gram: unknown PEP placement %s", cfg.Placement)
	}
	if cfg.Mode == AuthzCallout && cfg.Registry == nil {
		return nil, errors.New("gram: callout mode needs a registry")
	}
	if cfg.ConnWorkers <= 0 {
		cfg.ConnWorkers = 8
	}
	if cfg.idleTimeout == 0 {
		cfg.idleTimeout = defaultIdleTimeout
	}
	opts := []gsi.AuthOption{gsi.WithFeatures(FeatureMux)}
	if cfg.Metrics != nil {
		opts = append(opts, gsi.WithMetrics(cfg.Metrics))
	}
	for _, c := range cfg.VOCerts {
		opts = append(opts, gsi.WithVOCert(c))
	}
	var issuer *gsi.TicketIssuer
	if cfg.TicketRing != nil {
		issuer = gsi.NewTicketIssuerWithRing(cfg.TicketRing, gsi.DefaultTicketLifetime)
	} else {
		var err error
		issuer, err = gsi.NewTicketIssuer(gsi.DefaultTicketLifetime)
		if err != nil {
			return nil, fmt.Errorf("gram: %w", err)
		}
	}
	opts = append(opts, gsi.WithTicketIssuer(issuer))
	if cfg.Jobs == nil {
		cfg.Jobs = NewJobTable()
	}
	cfg.Jobs.watch(cfg.Cluster)
	return &Gatekeeper{
		cfg:  cfg,
		auth: gsi.NewAuthenticator(cfg.Credential, cfg.Trust, opts...),
		srv:  gsi.NewServer(),
		jobs: cfg.Jobs,
	}, nil
}

// Serve accepts connections on l until Close is called.
func (g *Gatekeeper) Serve(l net.Listener) error {
	return g.srv.Serve(l, g.handleConn)
}

// Close abandons in-flight policy evaluations, stops the accept loop,
// severs every connection and waits for connection handlers to drain.
func (g *Gatekeeper) Close() {
	g.srv.Close()
}

// Job returns the JMI for a contact (test and tooling hook).
func (g *Gatekeeper) Job(contact string) (*JMI, bool) {
	return g.jobs.Lookup(contact)
}

// handleConn serves one connection under ctx, which Close cancels.
func (g *Gatekeeper) handleConn(ctx context.Context, conn net.Conn) {
	peer, br, err := g.auth.HandshakeAccept(conn)
	if err != nil {
		// The handshake failed; there is no authenticated channel to
		// report the error on, matching GT2 behaviour.
		return
	}
	// The reader is this goroutine's alone: workers get decoded copies,
	// so it goes back to the pool when the loop is over.
	defer jsonwire.PutReader(br)
	if m := g.cfg.Metrics; m != nil {
		m.ConnsActive.Inc()
		defer m.ConnsActive.Dec()
	}

	// Replies are written under writeMu, each bounded by idleTimeout: a
	// peer that stops reading must not park the writer, and with it
	// every worker and the reader, behind a full socket buffer where the
	// read-side idle timer can no longer fire.
	var writeMu sync.Mutex
	write := func(m *Message) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(g.cfg.idleTimeout))
		return WriteMessage(conn, m)
	}

	// Requests are served by workers that live as long as the
	// connection: the reader starts one per request it cannot hand to a
	// parked worker, up to the bound, and from then on a request costs
	// one hand-off on the unbuffered reqs channel instead of a goroutine
	// and the regrowth of its stack. A peer that announced FeatureMux
	// correlates replies by Message.ID and gets ConnWorkers workers; any
	// other peer gets one, so its replies go out in request order and,
	// its requests carrying no ID, with none.
	bound := 1
	if peer.HasFeature(FeatureMux) {
		bound = g.cfg.ConnWorkers
	}
	var (
		reqs    = make(chan request)
		workers sync.WaitGroup
		started int // workers running; the reader's alone
	)
	// A worker owns the request it was handed and the reply it builds:
	// both are its own values, reused turn after turn, and nothing keeps
	// a *Message past dispatch.
	work := func(r request) {
		defer workers.Done()
		var slot Message
		for ok := true; ok; r, ok = <-reqs {
			reply := r.reply
			if reply == nil {
				slot = g.dispatch(ctx, peer, &r.msg)
				slot.ID = r.msg.ID
				reply = &slot
			}
			if write(reply) != nil {
				// The peer is gone or not reading: fail the reader's
				// next read too, so the connection is torn down.
				_ = conn.Close()
			}
		}
	}
	// On the way out every request handed to a worker finishes and is
	// replied to, and the workers exit; then fatal, the reader's report
	// of a read that lost framing, if any, goes out last.
	var fatal *Message
	defer func() {
		close(reqs)
		workers.Wait()
		if fatal != nil {
			_ = write(fatal)
		}
	}()
	for {
		_ = conn.SetReadDeadline(time.Now().Add(g.cfg.idleTimeout))
		var r request
		err := readMessage(br, &r.msg)
		switch {
		case err == nil:
		case errors.Is(err, ErrMalformedMessage):
			// The frame was complete but undecodable; framing is intact,
			// so the error is answered in its turn, like a request, and
			// serving goes on.
			r.reply = &Message{
				Type: MsgJobReply,
				Err:  &ProtoError{Code: CodeBadRSL, Message: err.Error()},
			}
		case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed), isTimeout(err):
			return
		default:
			// Framing is lost (ErrMessageTooLarge: the rest of the
			// oversized line was never consumed) or the read failed:
			// report after the replies in flight, then hang up.
			fatal = &Message{
				Type: MsgJobReply,
				Err:  &ProtoError{Code: CodeInternal, Message: err.Error()},
			}
			return
		}
		select {
		case reqs <- r: // a parked worker takes it
			continue
		default:
		}
		if started < bound {
			started++
			workers.Add(1)
			go work(r)
			continue
		}
		// Backpressure: every worker is busy, so block reads at the
		// bound. The gauge counts readers blocked here; sampled by
		// /metrics, nonzero sustained values mean ConnWorkers is the
		// bottleneck.
		if m := g.cfg.Metrics; m != nil {
			m.QueueWaiting.Inc()
			reqs <- r
			m.QueueWaiting.Dec()
		} else {
			reqs <- r
		}
	}
}

// request is one turn of a connection's work: a decoded message to
// dispatch, or the reader's own reply to a frame it could not decode,
// which waits its turn so that a serial peer's replies keep their
// order. The message travels by value, from the reader's frame to the
// worker's own request, so decoding a request allocates only its
// strings; the rare undecodable frame's reply may stay on the heap.
type request struct {
	msg   Message
	reply *Message
}

// dispatch authorizes and executes one request message, returning the
// reply by value. A request runs
// under the connection's context, so everything stops when the
// gatekeeper closes; nothing derives lasting work from it, and a
// protected PDP's deadline is derived and cancelled by the registry.
//
// Every request is assigned a RequestID here — the single generation
// point, so all audit records of one request carry the same ID and IDs
// never interleave across concurrent requests. When the registry has a
// trace store a Trace rides the same context; it is published to the
// store when the request finishes, whatever the outcome (even requests
// refused before any callout ran appear, with zero spans and no
// summary).
func (g *Gatekeeper) dispatch(ctx context.Context, peer *Peer, msg *Message) Message {
	traces := g.cfg.Registry.Traces()
	reqCtx, tr := obs.StartRequest(ctx, traces, string(peer.Identity))
	defer traces.Publish(tr)
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
		return Message{
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
func (g *Gatekeeper) handleJobRequest(ctx context.Context, peer *Peer, msg *Message) Message {
	fail := func(perr *ProtoError) Message {
		return Message{Type: MsgJobReply, Err: perr}
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

	// Stock GT2 authorization: presence in the grid-mapfile. With a
	// dynamic account pool the mapping step can lease an account
	// instead, relieving shortcoming (5).
	account, mapped := g.cfg.GridMap.LookupAccount(peer.Identity, msg.Account)
	if !mapped {
		if g.cfg.Accounts == nil || !g.cfg.Accounts.HasPool() {
			return fail(&ProtoError{
				Code:    CodeNoLocalAccount,
				Message: fmt.Sprintf("no grid-mapfile entry maps %s (requested account %q)", peer.Identity, msg.Account),
			})
		}
		lease, lerr := g.cfg.Accounts.Lease(peer.Identity, rightsFromSpec(spec), dynamicLease)
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
	abort := func(perr *ProtoError) Message {
		if g.cfg.Allocation != nil {
			g.cfg.Allocation.Commit(contact, 0)
		}
		return fail(perr)
	}

	// Authorize the start before creating the job manager request; in
	// callout mode, the paper's extension, against the callout chain.
	if perr := g.authorize(ctx, peer, policy.ActionStart, contact, "", spec, account); perr != nil {
		return fail(perr)
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
		Contact: contact,
		Owner:   peer.Identity,
		Account: account,
		Spec:    spec,
		cluster: g.cfg.Cluster,
	}
	g.jobs.add(contact, jmi)

	if perr := jmi.start(); perr != nil {
		g.jobs.remove(contact)
		return abort(perr)
	}
	if g.cfg.Allocation != nil {
		g.cfg.Allocation.Rebind(contact, jmi.LRMJobID())
	}
	return Message{Type: MsgJobReply, Contact: contact}
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

// handleManage authorizes a management request for the job it names
// and has the job's JMI execute it.
func (g *Gatekeeper) handleManage(ctx context.Context, peer *Peer, msg *Message) Message {
	jmi, ok := g.jobs.Lookup(msg.JobContact)
	if !ok {
		return manageError(&ProtoError{Code: CodeNoSuchJob, Message: fmt.Sprintf("no job %q", msg.JobContact)})
	}
	action := manageToPolicyAction(msg.Action)
	if action == "" {
		return manageError(&ProtoError{Code: CodeInternal, Message: fmt.Sprintf("unknown action %q", msg.Action)})
	}
	if perr := g.authorize(ctx, peer, action, jmi.Contact, jmi.Owner, jmi.Spec, ""); perr != nil {
		return manageError(perr)
	}
	return jmi.manage(peer.Identity, msg)
}

// authorize is GRAM's one policy enforcement point: every job startup
// and management request, in either placement, is
// decided here, under the request's context. Legacy mode is stock GT2:
// the grid-mapfile already admitted the start, and only the initiator
// may manage a job. Callout mode asks the chain of the PEP's location —
// the Gatekeeper's under PlacementGatekeeper, the Job Manager's
// otherwise — through audit.Enforce, and maps the decision: an
// undecidable start fails closed (decisionToProto), an undecidable
// management request is retryable (decisionToProtoManagement).
//
// A management check in the Job Manager runs under the user's local
// credential, so a tampered JMI (§6.2: the JM "is vulnerable to
// tampering by the user that could result in changed ... policy
// enforcement") skips it. Startup and a Gatekeeper-placed PEP run in the
// trusted Gatekeeper and cannot be skipped.
func (g *Gatekeeper) authorize(ctx context.Context, peer *Peer, action, contact string, owner gsi.DN, spec *rsl.Spec, account string) *ProtoError {
	start := action == policy.ActionStart
	calloutType := core.CalloutJobManager
	if g.cfg.Placement == PlacementGatekeeper {
		calloutType = core.CalloutGatekeeper
	}
	inJM := g.cfg.Mode == AuthzLegacy || calloutType == core.CalloutJobManager
	if !start && inJM && g.cfg.TamperJMI {
		return nil
	}
	if g.cfg.Mode == AuthzLegacy {
		if start || peer.Identity == owner {
			return nil
		}
		return &ProtoError{
			Code:    CodeAuthorizationDenied,
			Source:  "gt2-jmi",
			Message: fmt.Sprintf("only the job initiator %s may manage this job", owner),
		}
	}
	req := &core.Request{
		Subject:    peer.Identity,
		Assertions: peer.Assertions,
		Action:     action,
		JobID:      contact,
		JobOwner:   owner,
		Spec:       spec,
		Account:    account,
	}
	d := audit.Enforce(ctx, g.cfg.Registry, g.cfg.Audit, calloutType, req)
	if start {
		return decisionToProto(d)
	}
	return decisionToProtoManagement(d)
}

// decisionToProto converts a callout decision into the protocol's
// authorization error classes (nil for permits). It is the STARTUP
// mapping: an authorization system failure is a hard
// CodeAuthorizationFailure, because an undecidable startup must stay
// fail-closed — nothing was admitted and nothing exists to retry
// against (the paper's default-deny assertion model).
func decisionToProto(d core.Decision) *ProtoError {
	switch d.Effect {
	case core.Permit:
		return nil
	case core.Deny:
		return &ProtoError{Code: CodeAuthorizationDenied, Source: d.Source, Message: d.Reason}
	default:
		return &ProtoError{Code: CodeAuthorizationFailure, Source: d.Source, Message: d.Reason}
	}
}

// decisionToProtoManagement is the MANAGEMENT mapping: denial is still
// a hard CodeAuthorizationDenied, but an authorization system failure
// becomes the retryable CodeAuthorizationUnavailable — the job exists,
// nothing about it was decided, and a client that backs off and
// retries will get an answer once the callout recovers (see
// Client.SetRetryPolicy). Degrading management to "try again" instead
// of a hard error is safe because no action was taken; degrading it to
// "permitted" never happens.
func decisionToProtoManagement(d core.Decision) *ProtoError {
	perr := decisionToProto(d)
	if perr != nil && perr.Code == CodeAuthorizationFailure {
		perr.Code = CodeAuthorizationUnavailable
	}
	return perr
}
