// Package allocation implements the resource provider's side of the
// paper's §2 agreement: "a resource provider has reached an agreement
// with a VO to allow the VO to use some resource allocation. The
// resource providers think of the allocation in a coarse-grained manner:
// they are concerned about how many resources the VO can use as a whole,
// but they are not concerned about how allocation is used inside the
// VO."
//
// A Tracker accounts CPU-seconds consumed per VO against a granted
// budget, fed by the local scheduler's events, and exposes a PDP that
// denies further job startups once a VO's allocation is exhausted. The
// fine-grained split *inside* the allocation remains the VO's business
// (its own policy), exactly the two-level arrangement the paper
// describes.
package allocation

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/policy"
)

// ErrUnknownVO is returned for VOs without a grant.
var ErrUnknownVO = errors.New("allocation: unknown VO")

// Grant is a provider→VO allocation.
type Grant struct {
	// VO names the community.
	VO string
	// CPUSeconds is the granted budget.
	CPUSeconds float64
}

// Usage is a VO's current consumption.
type Usage struct {
	VO string
	// Granted is the budget.
	Granted float64
	// Used is committed consumption from finished (or accounted) jobs.
	Used float64
	// Reserved is the worst-case consumption of admitted, still-running
	// jobs (count × maxtime), so admission control is safe rather than
	// optimistic.
	Reserved float64
}

// Remaining returns the budget left for new admissions.
func (u Usage) Remaining() float64 {
	r := u.Granted - u.Used - u.Reserved
	if r < 0 {
		return 0
	}
	return r
}

// Tracker accounts usage per VO.
type Tracker struct {
	mu     sync.Mutex
	grants map[string]*Usage
	// jobs maps a scheduler job ID to its VO and reservation.
	jobs map[string]*jobEntry
	// members resolves an identity to its VO (the resource provider
	// knows which allocation a user draws on).
	members map[gsi.DN]string
}

type jobEntry struct {
	vo       string
	reserved float64
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		grants:  make(map[string]*Usage),
		jobs:    make(map[string]*jobEntry),
		members: make(map[gsi.DN]string),
	}
}

// SetGrant installs or replaces a VO's allocation.
func (t *Tracker) SetGrant(g Grant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	u, ok := t.grants[g.VO]
	if !ok {
		t.grants[g.VO] = &Usage{VO: g.VO, Granted: g.CPUSeconds}
		return
	}
	u.Granted = g.CPUSeconds
}

// Enroll associates an identity with the VO whose allocation it draws
// on. A user may also hold non-VO allocations; requests from identities
// not enrolled here are outside this tracker's scope (the §2 remark that
// "jobs invoked under this alternate allocation should not be subject to
// VO policy" cuts both ways).
func (t *Tracker) Enroll(id gsi.DN, vo string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.members[id] = vo
}

// VOFor resolves the VO an identity draws on.
func (t *Tracker) VOFor(id gsi.DN) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vo, ok := t.members[id]
	return vo, ok
}

// UsageOf reports a VO's usage.
func (t *Tracker) UsageOf(vo string) (Usage, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	u, ok := t.grants[vo]
	if !ok {
		return Usage{}, fmt.Errorf("%w: %s", ErrUnknownVO, vo)
	}
	return *u, nil
}

// Usages lists all VOs' usage sorted by name.
func (t *Tracker) Usages() []Usage {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Usage, 0, len(t.grants))
	for _, u := range t.grants {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VO < out[j].VO })
	return out
}

// Reserve charges a job's worst-case consumption against the VO before
// admission. It fails when the remaining budget cannot cover it.
func (t *Tracker) Reserve(vo, jobID string, cpuSeconds float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	u, ok := t.grants[vo]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownVO, vo)
	}
	if u.Used+u.Reserved+cpuSeconds > u.Granted {
		return fmt.Errorf("allocation: VO %s exhausted: granted %.0f, used %.0f, reserved %.0f, requested %.0f",
			vo, u.Granted, u.Used, u.Reserved, cpuSeconds)
	}
	u.Reserved += cpuSeconds
	t.jobs[jobID] = &jobEntry{vo: vo, reserved: cpuSeconds}
	return nil
}

// Rebind renames a reservation, e.g. from the GRAM job contact the
// admission callout saw to the local scheduler's job ID once the job is
// submitted. Unknown old IDs are ignored.
func (t *Tracker) Rebind(oldID, newID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.jobs[oldID]
	if !ok {
		return
	}
	delete(t.jobs, oldID)
	t.jobs[newID] = e
}

// Commit converts a job's reservation into actual usage when it ends.
func (t *Tracker) Commit(jobID string, actualCPUSeconds float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.jobs[jobID]
	if !ok {
		return
	}
	delete(t.jobs, jobID)
	u := t.grants[e.vo]
	if u == nil {
		return
	}
	u.Reserved -= e.reserved
	if u.Reserved < 0 {
		u.Reserved = 0
	}
	u.Used += actualCPUSeconds
}

// Attach subscribes the tracker to a cluster so terminal job events
// commit reservations automatically with the scheduler's accounting.
func (t *Tracker) Attach(cluster *jobcontrol.Cluster) {
	cluster.Subscribe(func(e jobcontrol.Event) {
		switch e.Kind {
		case jobcontrol.EventCompleted, jobcontrol.EventCanceled, jobcontrol.EventFailed:
			job, err := cluster.Lookup(e.JobID)
			if err != nil {
				t.Commit(e.JobID, 0)
				return
			}
			t.Commit(e.JobID, job.CPUSeconds)
		default:
		}
	})
}

// worstCase computes a request's worst-case CPU-seconds from its RSL:
// count × maxtime. Requests without maxtime cannot be admission-checked
// against a budget and are rejected by the PDP (the provider demands a
// bound).
func worstCase(req *core.Request) (float64, error) {
	if req.Spec == nil {
		return 0, errors.New("no job description")
	}
	count := 1
	if req.Spec.Has("count") {
		n, err := strconv.Atoi(req.Spec.Get("count"))
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("bad count %q", req.Spec.Get("count"))
		}
		count = n
	}
	if !req.Spec.Has("maxtime") {
		return 0, errors.New("allocation accounting requires a maxtime attribute")
	}
	minutes, err := strconv.Atoi(req.Spec.Get("maxtime"))
	if err != nil || minutes < 0 {
		return 0, fmt.Errorf("bad maxtime %q", req.Spec.Get("maxtime"))
	}
	return float64(count) * float64(minutes) * 60, nil
}

// PDP is the admission-control decision point for the provider's
// coarse-grained allocation. It only constrains job startup; management
// actions abstain. Identities not enrolled with any VO abstain too
// (they may hold a non-VO allocation; some other source must grant
// them).
type PDP struct {
	// Tracker holds grants and usage.
	Tracker *Tracker
	// ReserveOnPermit reserves the worst case on permits, so admission
	// and accounting are one atomic step. The caller must later Commit
	// (or Attach the tracker to the cluster and let events commit).
	ReserveOnPermit bool
}

var _ core.PDP = (*PDP)(nil)
var _ core.EffectfulPDP = (*PDP)(nil)

// Name implements core.PDP.
func (p *PDP) Name() string { return "vo-allocation" }

// SideEffecting implements core.EffectfulPDP: with ReserveOnPermit the
// PDP charges the VO budget as part of evaluation, so it must never be
// evaluated twice for one request (a retry would reserve twice) nor
// skipped (a cache hit would admit without reserving).
func (p *PDP) SideEffecting() bool { return p.ReserveOnPermit }

// Authorize implements core.PDP.
func (p *PDP) Authorize(req *core.Request) core.Decision {
	if req.Action != policy.ActionStart {
		return core.AbstainDecision(p.Name(), "allocation constrains startup only")
	}
	vo, ok := p.Tracker.VOFor(req.Subject)
	if !ok {
		return core.AbstainDecision(p.Name(), "subject draws on no tracked allocation")
	}
	need, err := worstCase(req)
	if err != nil {
		return core.DenyDecision(p.Name(), err.Error())
	}
	if p.ReserveOnPermit {
		if err := p.Tracker.Reserve(vo, req.JobID, need); err != nil {
			return core.DenyDecision(p.Name(), err.Error())
		}
		return core.AbstainDecision(p.Name(),
			fmt.Sprintf("VO %s charged %.0f cpu-seconds (reserved)", vo, need))
	}
	u, err := p.Tracker.UsageOf(vo)
	if err != nil {
		return core.DenyDecision(p.Name(), err.Error())
	}
	if need > u.Remaining() {
		return core.DenyDecision(p.Name(),
			fmt.Sprintf("VO %s allocation exhausted: need %.0f, remaining %.0f", vo, need, u.Remaining()))
	}
	return core.AbstainDecision(p.Name(),
		fmt.Sprintf("VO %s within allocation (need %.0f of %.0f remaining)", vo, need, u.Remaining()))
}
