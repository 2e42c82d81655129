package gram

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
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
// the job to the local job control system, monitoring it, and executing
// the management requests the Gatekeeper's enforcement point authorized
// (Gatekeeper.authorize, which also models the JM-placed PEP). In GT2
// the JMI runs under the job initiator's local credential; the Account
// field records that binding.
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

	cluster *jobcontrol.Cluster
	mu      sync.Mutex
	lrmID   string
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
func (j *JMI) start() *ProtoError {
	spec, perr := specToLRM(j.Spec, j.Account)
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
func specToLRM(spec *rsl.Spec, account string) (jobcontrol.JobSpec, *ProtoError) {
	out := jobcontrol.JobSpec{
		Executable: spec.Get("executable"),
		Account:    account,
		Count:      1,
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

// manage executes an authorized management request from requester.
func (j *JMI) manage(requester gsi.DN, m *Message) Message {
	switch m.Action {
	case ManageStatus:
		state, detail := j.State()
		return Message{
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
		return Message{Type: MsgManageReply, State: string(state), Owner: string(j.Owner)}
	case ManageSignal:
		if perr := j.signal(m); perr != nil {
			return manageError(perr)
		}
		state, _ := j.State()
		return Message{Type: MsgManageReply, State: string(state), Owner: string(j.Owner)}
	default:
		return manageError(&ProtoError{Code: CodeInternal, Message: fmt.Sprintf("unknown action %q", m.Action)})
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

func manageError(perr *ProtoError) Message {
	return Message{Type: MsgManageReply, Err: perr}
}

func lrmError(err error) *ProtoError {
	switch {
	case err == nil:
		return nil
	default:
		return &ProtoError{Code: CodeJobState, Message: err.Error()}
	}
}
