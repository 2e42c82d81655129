// Package sandbox implements the continuous, fine-grain enforcement
// alternative discussed in §6.1 of the paper: "a sandbox is an
// environment that imposes restrictions on resource usage ... having the
// resource operating system act as the policy evaluation and enforcement
// modules", complementary to the gateway (admission-time) approach.
//
// A Monitor subscribes to the local job control system and polices each
// attached job against per-job limits while it runs, killing violators.
// This is what lets experiment E6 demonstrate the "gateway enforcement
// gap": a job admitted under policy may still over-consume at runtime;
// only continuous enforcement catches it.
package sandbox

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gridauth/internal/jobcontrol"
)

// Limits bound a sandboxed job's resource usage.
type Limits struct {
	// MaxCPUSeconds caps accumulated cpu time (0 = unlimited).
	MaxCPUSeconds float64
	// MaxMemoryMB caps resident memory (0 = unlimited).
	MaxMemoryMB int
	// MaxDiskMB caps disk consumption (0 = unlimited).
	MaxDiskMB int
	// MaxRuntime caps wall-clock runtime (0 = unlimited).
	MaxRuntime time.Duration
}

// Violation records a limit breach.
type Violation struct {
	JobID    string
	Time     time.Time
	Resource string
	Used     float64
	Limit    float64
}

// String formats the violation.
func (v Violation) String() string {
	return fmt.Sprintf("job %s exceeded %s: used %.1f, limit %.1f", v.JobID, v.Resource, v.Used, v.Limit)
}

// Monitor polices sandboxed jobs on a cluster.
type Monitor struct {
	cluster *jobcontrol.Cluster

	mu         sync.Mutex
	limits     map[string]Limits
	violations []Violation
	// Kill controls whether violating jobs are terminated (true) or
	// merely reported (audit mode).
	kill bool
}

// NewMonitor attaches a sandbox monitor to a cluster. With kill=true,
// violating jobs are canceled; otherwise violations are only recorded.
func NewMonitor(cluster *jobcontrol.Cluster, kill bool) *Monitor {
	m := &Monitor{
		cluster: cluster,
		limits:  make(map[string]Limits),
		kill:    kill,
	}
	cluster.Subscribe(m.onEvent)
	return m
}

// Attach sandboxes a job under the given limits.
func (m *Monitor) Attach(jobID string, l Limits) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limits[jobID] = l
}

// Detach removes a job from sandbox supervision.
func (m *Monitor) Detach(jobID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.limits, jobID)
}

// Violations returns all recorded violations in order.
//
//authlint:ignore deadexport TestGatewayEnforcementGap (experiments_test.go) counts the sandbox's kills with it
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]Violation(nil), m.violations...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// onEvent reacts to scheduler lifecycle events; terminal events drop the
// job from supervision.
func (m *Monitor) onEvent(e jobcontrol.Event) {
	switch e.Kind {
	case jobcontrol.EventCompleted, jobcontrol.EventCanceled, jobcontrol.EventFailed:
		m.Detach(e.JobID)
	default:
	}
}

// Poll inspects every sandboxed job's current usage and enforces limits.
// Call it after each clock advance (the simulated analogue of the
// periodic checks a user-level sandbox performs).
func (m *Monitor) Poll() []Violation {
	m.mu.Lock()
	ids := make([]string, 0, len(m.limits))
	for id := range m.limits {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	m.mu.Unlock()

	var found []Violation
	for _, id := range ids {
		job, err := m.cluster.Lookup(id)
		if err != nil {
			m.Detach(id)
			continue
		}
		m.mu.Lock()
		l, ok := m.limits[id]
		m.mu.Unlock()
		if !ok {
			continue
		}
		v, bad := check(&job, l, m.cluster.Now())
		if !bad {
			continue
		}
		found = append(found, v)
		m.mu.Lock()
		m.violations = append(m.violations, v)
		m.mu.Unlock()
		if m.kill && !job.State.Terminal() {
			// Best effort: the job may have finished between lookup and
			// cancel.
			_ = m.cluster.Cancel(id, "sandbox: "+v.Resource+" limit exceeded")
		}
		m.Detach(id)
	}
	return found
}

func check(job *jobcontrol.Job, l Limits, now time.Time) (Violation, bool) {
	if l.MaxCPUSeconds > 0 && job.CPUSeconds > l.MaxCPUSeconds {
		return Violation{JobID: job.ID, Time: now, Resource: "cpu-seconds", Used: job.CPUSeconds, Limit: l.MaxCPUSeconds}, true
	}
	if l.MaxMemoryMB > 0 && job.Spec.MemoryMB > l.MaxMemoryMB {
		return Violation{JobID: job.ID, Time: now, Resource: "memory-mb", Used: float64(job.Spec.MemoryMB), Limit: float64(l.MaxMemoryMB)}, true
	}
	if l.MaxDiskMB > 0 && job.Spec.DiskMB > l.MaxDiskMB {
		return Violation{JobID: job.ID, Time: now, Resource: "disk-mb", Used: float64(job.Spec.DiskMB), Limit: float64(l.MaxDiskMB)}, true
	}
	if l.MaxRuntime > 0 && job.State == jobcontrol.StateRunning && !job.StartedAt.IsZero() {
		run := now.Sub(job.StartedAt)
		if run > l.MaxRuntime {
			return Violation{JobID: job.ID, Time: now, Resource: "runtime-seconds", Used: run.Seconds(), Limit: l.MaxRuntime.Seconds()}, true
		}
	}
	return Violation{}, false
}
