// Package jobcontrol simulates the local job control system (the PBS/LSF
// role in GT2 deployments) that the Job Manager Instance drives: a
// cluster with a fixed CPU pool, a priority queue, and job lifecycle
// operations (start, cancel, suspend, resume, signal).
//
// The simulator runs on a virtual clock advanced explicitly with Advance,
// which keeps every test and benchmark deterministic while still
// exercising queueing, preemption and timeout behaviour. Resource usage
// is accounted per job so the sandbox package can enforce continuous
// policies against it.
//
// Jobs end. A job that completes, fails or is cancelled stays known
// until retention more jobs have ended after it; then the cluster
// forgets it and tells its listeners with an EventReaped. Live jobs are
// never forgotten, and job IDs are never reissued.
package jobcontrol

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State int

// Job lifecycle states.
const (
	StateQueued State = iota + 1
	StateRunning
	StateSuspended
	StateCompleted
	StateCanceled
	StateFailed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateCompleted:
		return "completed"
	case StateCanceled:
		return "canceled"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateCanceled || s == StateFailed
}

// Errors returned by cluster operations.
var (
	ErrUnknownJob   = errors.New("jobcontrol: unknown job")
	ErrBadState     = errors.New("jobcontrol: operation invalid in current state")
	ErrOverCapacity = errors.New("jobcontrol: request exceeds cluster capacity")
)

// JobSpec describes a job submission to the local scheduler.
type JobSpec struct {
	// Executable is the program name (used for bookkeeping only).
	Executable string
	// Account is the local account the job runs under.
	Account string
	// Count is the number of CPUs the job occupies.
	Count int
	// Duration is how long the job runs on the virtual clock.
	Duration time.Duration
	// MaxTime, when positive, kills the job after that much runtime
	// (the scheduler-enforced maxtime RSL attribute).
	MaxTime time.Duration
	// Priority orders the queue; higher runs first.
	Priority int
	// MemoryMB and DiskMB are the job's simulated working set, consumed
	// while running (sandbox enforcement input).
	MemoryMB int
	DiskMB   int
	// Ref is the submitter's own handle on the job, opaque to the
	// scheduler: the EventReaped that forgets the job carries it back.
	Ref any
}

// Job is the scheduler's view of a submitted job.
type Job struct {
	ID     string
	Spec   JobSpec
	State  State
	Detail string
	// StartedAt is when the job first ran, on the virtual clock.
	StartedAt time.Time
	// CPUSeconds is accumulated cpu usage (runtime × count).
	CPUSeconds float64

	remaining time.Duration // run time still needed
	runStart  time.Time     // start of the current running stretch
}

// EventKind classifies scheduler events.
type EventKind int

// Scheduler event kinds.
const (
	EventQueued EventKind = iota + 1
	EventStarted
	EventCompleted
	EventCanceled
	EventSuspended
	EventResumed
	EventFailed
	// EventReaped: an ended job was forgotten (see retention).
	EventReaped
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventQueued:
		return "queued"
	case EventStarted:
		return "started"
	case EventCompleted:
		return "completed"
	case EventCanceled:
		return "canceled"
	case EventSuspended:
		return "suspended"
	case EventResumed:
		return "resumed"
	case EventFailed:
		return "failed"
	case EventReaped:
		return "reaped"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a scheduler lifecycle notification.
type Event struct {
	Time   time.Time
	JobID  string
	Kind   EventKind
	Detail string
	// CPUSeconds is the job's final usage, on the events that end it
	// (completed, canceled, failed): by the time a listener runs, the
	// job may already be reaped.
	CPUSeconds float64
	// Ref is the job's JobSpec.Ref, on an EventReaped.
	Ref any
}

// Listener receives scheduler events. Listeners are invoked outside the
// cluster lock, in event order.
type Listener func(Event)

// retention is how many ended jobs a cluster keeps, most recent first:
// enough for a client to read the outcome of the job it just ended,
// small enough (a few MiB) that a long-lived resource's state is bounded
// by its live jobs.
const retention = 4096

// Cluster is the simulated resource.
type Cluster struct {
	mu        sync.Mutex
	totalCPUs int
	freeCPUs  int
	now       time.Time
	nextID    int
	jobs      map[string]*Job // live jobs and the last retention ended ones
	queue     []*Job
	listeners []Listener // replaced, never appended to in place
	pending   []Event
	// ended is a ring of the last retention ended jobs; endedNext is the
	// slot the next one takes, holding the oldest once the ring is full.
	ended     []*Job
	endedNext int
}

// NewCluster creates a cluster with the given CPU pool. The virtual clock
// starts at a fixed epoch for reproducibility.
func NewCluster(cpus int) *Cluster {
	return &Cluster{
		totalCPUs: cpus,
		freeCPUs:  cpus,
		now:       time.Date(2003, time.June, 16, 0, 0, 0, 0, time.UTC),
		jobs:      make(map[string]*Job),
		ended:     make([]*Job, retention),
	}
}

// Subscribe registers a listener for scheduler events.
func (c *Cluster) Subscribe(l Listener) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A new slice, so a delivery in progress keeps the one it read.
	c.listeners = append(c.listeners[:len(c.listeners):len(c.listeners)], l)
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// CPUs returns (total, free) processor counts.
func (c *Cluster) CPUs() (total, free int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalCPUs, c.freeCPUs
}

// Submit enqueues a job and schedules immediately if capacity allows. It
// returns a snapshot of the job, by value, as Lookup does.
func (c *Cluster) Submit(spec JobSpec) (Job, error) {
	if spec.Count <= 0 {
		spec.Count = 1
	}
	if spec.Count > c.totalCPUs {
		return Job{}, fmt.Errorf("%w: count %d > %d cpus", ErrOverCapacity, spec.Count, c.totalCPUs)
	}
	c.mu.Lock()
	c.nextID++
	id := strconv.AppendInt(append(make([]byte, 0, 24), "lrm-"...), int64(c.nextID), 10)
	job := &Job{
		ID:        string(id),
		Spec:      spec,
		State:     StateQueued,
		remaining: spec.Duration,
	}
	c.jobs[job.ID] = job
	c.queue = append(c.queue, job)
	c.emit(Event{Time: c.now, JobID: job.ID, Kind: EventQueued})
	c.schedule()
	snap := c.snapshotLocked(job)
	c.dispatchLocked()
	return snap, nil
}

// Lookup returns a snapshot of the job, by value: a caller reading a
// field or two of a job allocates nothing for it.
func (c *Cluster) Lookup(id string) (Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return c.snapshotLocked(job), nil
}

// Jobs returns snapshots of the live jobs and the most recent ended ones
// (see retention), sorted by ID.
func (c *Cluster) Jobs() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		snap := c.snapshotLocked(j)
		out = append(out, &snap)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel terminates a job in any non-terminal state.
func (c *Cluster) Cancel(id, reason string) error {
	c.mu.Lock()
	job, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if job.State.Terminal() {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, id, job.State)
	}
	c.finish(job, StateCanceled, reason)
	c.schedule()
	c.dispatchLocked()
	return nil
}

// Suspend pauses a running job, freeing its CPUs (the §2 scenario: "this
// requires suspending existing jobs to free up resources").
func (c *Cluster) Suspend(id string) error {
	c.mu.Lock()
	job, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if job.State != StateRunning {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, id, job.State)
	}
	c.accumulate(job)
	job.State = StateSuspended
	c.freeCPUs += job.Spec.Count
	c.emit(Event{Time: c.now, JobID: id, Kind: EventSuspended})
	c.schedule()
	c.dispatchLocked()
	return nil
}

// Resume re-queues a suspended job at its priority.
func (c *Cluster) Resume(id string) error {
	c.mu.Lock()
	job, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if job.State != StateSuspended {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, id, job.State)
	}
	job.State = StateQueued
	c.queue = append(c.queue, job)
	c.emit(Event{Time: c.now, JobID: id, Kind: EventResumed})
	c.schedule()
	c.dispatchLocked()
	return nil
}

// SetPriority changes a job's queue priority (the "signal" management
// action's priority change).
func (c *Cluster) SetPriority(id string, priority int) error {
	c.mu.Lock()
	job, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.Spec.Priority = priority
	c.schedule()
	c.dispatchLocked()
	return nil
}

// Advance moves the virtual clock forward by d, starting, completing and
// timing out jobs as the clock passes their event times.
func (c *Cluster) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for {
		c.schedule()
		next, job := c.nextEvent()
		if job == nil || next.After(target) {
			break
		}
		c.now = next
		c.accumulate(job)
		if job.Spec.MaxTime > 0 && c.runtimeOf(job) >= job.Spec.MaxTime && job.remaining > 0 {
			c.finish(job, StateFailed, "maxtime exceeded")
			continue
		}
		c.finish(job, StateCompleted, "")
	}
	c.now = target
	c.schedule()
	c.dispatchLocked()
}

// nextEvent returns the earliest completion/timeout among running jobs.
func (c *Cluster) nextEvent() (time.Time, *Job) {
	var (
		best    time.Time
		bestJob *Job
	)
	for _, j := range c.jobs {
		if j.State != StateRunning {
			continue
		}
		end := j.runStart.Add(j.remaining)
		if j.Spec.MaxTime > 0 {
			timeout := j.runStart.Add(j.Spec.MaxTime - c.priorRuntime(j))
			if timeout.Before(end) {
				end = timeout
			}
		}
		if bestJob == nil || end.Before(best) {
			best, bestJob = end, j
		}
	}
	return best, bestJob
}

// priorRuntime is runtime accumulated before the current running stretch.
func (c *Cluster) priorRuntime(j *Job) time.Duration {
	return j.Spec.Duration - j.remaining
}

// runtimeOf is the job's total runtime as of c.now (after accumulate).
func (c *Cluster) runtimeOf(j *Job) time.Duration {
	return j.Spec.Duration - j.remaining
}

// accumulate charges the running stretch up to c.now against the job.
func (c *Cluster) accumulate(j *Job) {
	if j.State != StateRunning {
		return
	}
	ran := c.now.Sub(j.runStart)
	if ran < 0 {
		ran = 0
	}
	if ran > j.remaining {
		ran = j.remaining
	}
	j.remaining -= ran
	j.CPUSeconds += ran.Seconds() * float64(j.Spec.Count)
	j.runStart = c.now
}

// finish moves a job to a terminal state and retires it.
func (c *Cluster) finish(j *Job, state State, detail string) {
	if j.State == StateRunning {
		c.accumulate(j)
		c.freeCPUs += j.Spec.Count
	}
	if j.State == StateQueued {
		c.removeFromQueue(j)
	}
	j.State = state
	j.Detail = detail
	kind := EventCompleted
	switch state {
	case StateCanceled:
		kind = EventCanceled
	case StateFailed:
		kind = EventFailed
	}
	c.emit(Event{Time: c.now, JobID: j.ID, Kind: kind, Detail: detail, CPUSeconds: j.CPUSeconds})
	c.retire(j)
}

// retire puts an ended job in the ring of ended jobs and forgets the
// one it displaces, the oldest.
func (c *Cluster) retire(j *Job) {
	old := c.ended[c.endedNext]
	c.ended[c.endedNext] = j
	c.endedNext = (c.endedNext + 1) % retention
	if old != nil {
		delete(c.jobs, old.ID)
		c.emit(Event{Time: c.now, JobID: old.ID, Kind: EventReaped, Ref: old.Spec.Ref})
	}
}

// schedule starts queued jobs while capacity allows, highest priority
// first (FIFO within a priority).
func (c *Cluster) schedule() {
	slices.SortStableFunc(c.queue, func(a, b *Job) int {
		return cmp.Compare(b.Spec.Priority, a.Spec.Priority)
	})
	// Filtered in place: the queue's array is reused, submit after submit.
	stillQueued := c.queue[:0]
	for _, j := range c.queue {
		if j.State != StateQueued {
			continue
		}
		if j.Spec.Count <= c.freeCPUs {
			c.freeCPUs -= j.Spec.Count
			j.State = StateRunning
			j.runStart = c.now
			if j.StartedAt.IsZero() {
				j.StartedAt = c.now
			}
			if j.remaining == 0 {
				// Zero-duration job: completes at the same instant.
				c.finish(j, StateCompleted, "")
				continue
			}
			c.emit(Event{Time: c.now, JobID: j.ID, Kind: EventStarted})
			continue
		}
		stillQueued = append(stillQueued, j)
	}
	clear(c.queue[len(stillQueued):])
	c.queue = stillQueued
}

func (c *Cluster) removeFromQueue(j *Job) {
	for i, q := range c.queue {
		if q == j {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

func (c *Cluster) emit(e Event) {
	c.pending = append(c.pending, e)
}

// spareEvents caps the event buffer a cluster keeps between deliveries.
const spareEvents = 64

// dispatchLocked delivers pending events with the lock released, then
// returns with it released (callers must not touch state afterwards).
// The delivered buffer is cleared and kept for the next operation's
// events, so a steady stream of operations allocates none for them.
func (c *Cluster) dispatchLocked() {
	events := c.pending
	if len(events) == 0 {
		c.mu.Unlock()
		return
	}
	c.pending = nil
	listeners := c.listeners
	c.mu.Unlock()
	for _, e := range events {
		for _, l := range listeners {
			l(e)
		}
	}
	if cap(events) > spareEvents {
		return
	}
	clear(events)
	c.mu.Lock()
	if c.pending == nil {
		c.pending = events[:0]
	}
	c.mu.Unlock()
}

func (c *Cluster) snapshotLocked(j *Job) Job {
	// Charge the current running stretch so CPUSeconds is up to date in
	// the snapshot without mutating accounting state.
	cp := *j
	if j.State == StateRunning {
		ran := c.now.Sub(j.runStart)
		if ran > j.remaining {
			ran = j.remaining
		}
		cp.CPUSeconds += ran.Seconds() * float64(j.Spec.Count)
	}
	return cp
}
