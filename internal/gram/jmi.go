package gram

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// JobState is the GRAM view of a job's lifecycle.
type JobState string

// GRAM job states (the GT2 protocol's PENDING/ACTIVE/SUSPENDED/DONE/
// FAILED set).
const (
	StatePending   JobState = "PENDING"
	StateActive    JobState = "ACTIVE"
	StateSuspended JobState = "SUSPENDED"
	StateDone      JobState = "DONE"
	StateFailed    JobState = "FAILED"
	StateCanceled  JobState = "CANCELED"
)

// JMI is a Job Manager Instance: one per job, responsible for submitting
// the job to the local job control system, monitoring it, and — in the
// paper's extension — authorizing every management request through the
// callout API before acting. In GT2 the JMI runs under the job
// initiator's local credential; the Account field records that binding.
type JMI struct {
	// Contact is the GRAM job contact string clients use to address the
	// job.
	Contact string
	// Owner is the Grid identity that initiated the job.
	Owner gsi.DN
	// Account is the local account the JMI (and job) runs under.
	Account string
	// Spec is the parsed RSL job description.
	Spec *rsl.Spec

	mode      AuthzMode
	registry  *core.Registry
	auditLog  *audit.Log
	cluster   *jobcontrol.Cluster
	lrmID     string
	tampered  bool
	mu        sync.Mutex
	lastState JobState
}

// AuthzMode selects which authorization model a component applies.
type AuthzMode int

// Authorization models.
const (
	// AuthzLegacy is stock GT2: grid-mapfile at the Gatekeeper;
	// initiator-only management at the JMI (§4).
	AuthzLegacy AuthzMode = iota + 1
	// AuthzCallout is the paper's extension: the configured callout
	// chain decides startup and management (§5).
	AuthzCallout
)

// String returns the mode name.
func (m AuthzMode) String() string {
	switch m {
	case AuthzLegacy:
		return "legacy"
	case AuthzCallout:
		return "callout"
	default:
		return fmt.Sprintf("AuthzMode(%d)", int(m))
	}
}

// start submits the job to the local scheduler. Called by the Gatekeeper
// after startup authorization succeeded.
func (j *JMI) start(defaultPriority int) *ProtoError {
	spec, perr := specToLRM(j.Spec, j.Account, defaultPriority)
	if perr != nil {
		return perr
	}
	job, err := j.cluster.Submit(spec)
	if err != nil {
		return &ProtoError{Code: CodeLocalScheduler, Message: err.Error()}
	}
	j.mu.Lock()
	j.lrmID = job.ID
	j.mu.Unlock()
	return nil
}

// specToLRM maps RSL attributes onto a local scheduler job. The
// simulation-only attribute "simduration" (seconds) sets how long the
// job runs on the virtual clock.
func specToLRM(spec *rsl.Spec, account string, priority int) (jobcontrol.JobSpec, *ProtoError) {
	out := jobcontrol.JobSpec{
		Executable: spec.Get("executable"),
		Account:    account,
		Count:      1,
		Priority:   priority,
	}
	badInt := func(attr string) *ProtoError {
		return &ProtoError{Code: CodeBadRSL, Message: fmt.Sprintf("attribute %q must be an integer", attr)}
	}
	if spec.Has("count") {
		n, err := strconv.Atoi(spec.Get("count"))
		if err != nil || n <= 0 {
			return out, badInt("count")
		}
		out.Count = n
	}
	if spec.Has("maxtime") { // minutes, per GT2 convention
		n, err := strconv.Atoi(spec.Get("maxtime"))
		if err != nil || n < 0 {
			return out, badInt("maxtime")
		}
		out.MaxTime = time.Duration(n) * time.Minute
	}
	if spec.Has("maxmemory") {
		n, err := strconv.Atoi(spec.Get("maxmemory"))
		if err != nil || n < 0 {
			return out, badInt("maxmemory")
		}
		out.MemoryMB = n
	}
	if spec.Has("disk") {
		n, err := strconv.Atoi(spec.Get("disk"))
		if err != nil || n < 0 {
			return out, badInt("disk")
		}
		out.DiskMB = n
	}
	if spec.Has("priority") {
		n, err := strconv.Atoi(spec.Get("priority"))
		if err != nil {
			return out, badInt("priority")
		}
		out.Priority = n
	}
	if spec.Has("simduration") {
		n, err := strconv.Atoi(spec.Get("simduration"))
		if err != nil || n < 0 {
			return out, badInt("simduration")
		}
		out.Duration = time.Duration(n) * time.Second
	}
	return out, nil
}

// LRMJobID returns the local scheduler's ID for the job.
func (j *JMI) LRMJobID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lrmID
}

// State maps the scheduler state to the GRAM job state.
func (j *JMI) State() (JobState, string) {
	job, err := j.cluster.Lookup(j.LRMJobID())
	if err != nil {
		return StateFailed, err.Error()
	}
	switch job.State {
	case jobcontrol.StateQueued:
		return StatePending, ""
	case jobcontrol.StateRunning:
		return StateActive, ""
	case jobcontrol.StateSuspended:
		return StateSuspended, ""
	case jobcontrol.StateCompleted:
		return StateDone, ""
	case jobcontrol.StateCanceled:
		return StateCanceled, job.Detail
	default:
		return StateFailed, job.Detail
	}
}

// authorize runs the management-request authorization the paper moved
// into the JMI: legacy mode applies the initiator-only rule; callout mode
// dispatches to the configured callout chain. A tampered JMI (§6.2: the
// JM "is vulnerable to tampering by the user that could result in changed
// ... policy enforcement") skips the check entirely.
func (j *JMI) authorize(ctx context.Context, peer *Peer, action string) *ProtoError {
	if j.tampered {
		return nil
	}
	switch j.mode {
	case AuthzLegacy:
		if peer.Identity == j.Owner {
			return nil
		}
		return &ProtoError{
			Code:    CodeAuthorizationDenied,
			Source:  "gt2-jmi",
			Message: fmt.Sprintf("only the job initiator %s may manage this job", j.Owner),
		}
	case AuthzCallout:
		req := &core.Request{
			Subject:    peer.Identity,
			Assertions: peer.Assertions,
			Action:     action,
			JobID:      j.Contact,
			JobOwner:   j.Owner,
			Spec:       j.Spec,
		}
		d := j.registry.InvokeContext(ctx, core.CalloutJobManager, req)
		auditDecision(ctx, j.auditLog, core.CalloutJobManager, req, d)
		return decisionToProtoManagement(d)
	default:
		return &ProtoError{Code: CodeInternal, Message: "unknown authorization mode"}
	}
}

// Manage authorizes and executes a management request.
func (j *JMI) Manage(peer *Peer, m *Message) *Message {
	return j.manage(context.Background(), peer, m, false)
}

// ManageContext is Manage with the PEP's per-request context: the
// callout chain (and any context-aware PDP in it) observes cancellation
// when the request is abandoned.
func (j *JMI) ManageContext(ctx context.Context, peer *Peer, m *Message) *Message {
	return j.manage(ctx, peer, m, false)
}

// managePreauthorized executes a management request whose authorization
// already happened in the Gatekeeper (PlacementGatekeeper).
func (j *JMI) managePreauthorized(m *Message) *Message {
	return j.manage(context.Background(), nil, m, true)
}

func (j *JMI) manage(ctx context.Context, peer *Peer, m *Message, preauthorized bool) *Message {
	action := manageToPolicyAction(m.Action)
	if action == "" {
		return manageError(&ProtoError{Code: CodeInternal, Message: fmt.Sprintf("unknown action %q", m.Action)})
	}
	requester := gsi.DN("gatekeeper-preauthorized")
	if peer != nil {
		requester = peer.Identity
	}
	if !preauthorized {
		if perr := j.authorize(ctx, peer, action); perr != nil {
			return manageError(perr)
		}
	}
	switch m.Action {
	case ManageStatus:
		state, detail := j.State()
		return &Message{
			Type:   MsgManageReply,
			State:  string(state),
			Owner:  string(j.Owner),
			Detail: detail,
		}
	case ManageCancel:
		if err := j.cluster.Cancel(j.LRMJobID(), "canceled via GRAM by "+string(requester)); err != nil {
			return manageError(lrmError(err))
		}
		state, _ := j.State()
		return &Message{Type: MsgManageReply, State: string(state), Owner: string(j.Owner)}
	case ManageSignal:
		if perr := j.signal(m); perr != nil {
			return manageError(perr)
		}
		state, _ := j.State()
		return &Message{Type: MsgManageReply, State: string(state), Owner: string(j.Owner)}
	default:
		return manageError(&ProtoError{Code: CodeInternal, Message: "unreachable"})
	}
}

func (j *JMI) signal(m *Message) *ProtoError {
	switch m.Signal {
	case SignalSuspend:
		if err := j.cluster.Suspend(j.LRMJobID()); err != nil {
			return lrmError(err)
		}
	case SignalResume:
		if err := j.cluster.Resume(j.LRMJobID()); err != nil {
			return lrmError(err)
		}
	case SignalPriority:
		n, err := strconv.Atoi(m.SignalArg)
		if err != nil {
			return &ProtoError{Code: CodeInternal, Message: "priority signal needs an integer argument"}
		}
		if err := j.cluster.SetPriority(j.LRMJobID(), n); err != nil {
			return lrmError(err)
		}
	default:
		return &ProtoError{Code: CodeInternal, Message: fmt.Sprintf("unknown signal %q", m.Signal)}
	}
	return nil
}

// manageToPolicyAction maps protocol management actions onto policy
// action names.
func manageToPolicyAction(action string) string {
	switch action {
	case ManageCancel:
		return policy.ActionCancel
	case ManageStatus:
		return policy.ActionInformation
	case ManageSignal:
		return policy.ActionSignal
	default:
		return ""
	}
}

func manageError(perr *ProtoError) *Message {
	return &Message{Type: MsgManageReply, Err: perr}
}

func lrmError(err error) *ProtoError {
	switch {
	case err == nil:
		return nil
	default:
		return &ProtoError{Code: CodeJobState, Message: err.Error()}
	}
}

// auditDecision records one PEP-acted-on callout decision. A nil log
// disables auditing (the record construction is skipped, not queued).
// Both enforcement points — the Gatekeeper and each JMI — funnel
// through here so the trail always names who asked, for what job, and
// which policy source decided (§4.3's "security, audit, accounting").
// The append is asynchronous; with the queue full, block mode (the
// docs/AUDIT.md recommendation for job startup and management) applies
// backpressure here, so no GRAM decision is ever acted on unrecorded.
//
// When the request is traced, the trace is finalized here — the summary
// the PEP acted on, independent of whether a log is configured — and
// the audit record carries the request's correlation ID plus the
// per-PDP spans, so a log entry alone explains the full decision path.
func auditDecision(ctx context.Context, log *audit.Log, calloutType string, req *core.Request, d core.Decision) {
	var spans []obs.Span
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.Finish(calloutType, req.Action, d.Effect.String(), d.Source, d.Reason)
		spans = tr.Spans()
	}
	if log == nil {
		return
	}
	r := audit.DecisionRecord(obs.RequestIDFrom(ctx), calloutType, req, d)
	r.Spans = spans
	log.Append(r)
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
