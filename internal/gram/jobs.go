package gram

import (
	"slices"
	"sync"

	"gridauth/internal/jobcontrol"
)

// JobTable holds the Job Manager Instances of ONE resource, keyed by
// GRAM job contact, together with the contact ID counter: those of the
// live jobs and the most recent ended ones. When the scheduler reaps an
// ended job (jobcontrol's retention), the table drops its JMI, and the
// contact answers as one never issued: CodeNoSuchJob, before any
// callout. Contact IDs are never reissued. Every
// Gatekeeper owns a private table by default; a federated deployment
// (internal/cluster, docs/CLUSTER.md) hands the SAME table — alongside
// the same jobcontrol.Cluster — to every gatekeeper node fronting the
// resource, so a job submitted through any node can be queried,
// signalled or cancelled through any other node after a failover. The
// table is pure shared state: a JMI carries no registry or audit wiring,
// and management authorization always runs in the node answering the
// request, in either placement (PlacementGatekeeper is the recommended
// cluster placement).
type JobTable struct {
	mu       sync.Mutex
	jobs     map[string]*JMI
	nextID   int
	clusters []*jobcontrol.Cluster // watched, each once
}

// NewJobTable creates an empty job table.
func NewJobTable() *JobTable {
	return &JobTable{jobs: make(map[string]*JMI)}
}

// watch subscribes the table to a cluster's reap events, once however
// many gatekeepers sharing the table schedule on it.
func (t *JobTable) watch(c *jobcontrol.Cluster) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slices.Contains(t.clusters, c) {
		return
	}
	t.clusters = append(t.clusters, c)
	c.Subscribe(t.onEvent)
}

// onEvent drops the JMI of a reaped job. A job the table never held (one
// submitted straight to the scheduler, or through another table) is
// none of its business.
func (t *JobTable) onEvent(e jobcontrol.Event) {
	if e.Kind != jobcontrol.EventReaped {
		return
	}
	j, ok := e.Ref.(*JMI)
	if !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs[j.Contact] == j {
		delete(t.jobs, j.Contact)
	}
}

// next reserves the next contact ID.
func (t *JobTable) next() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add registers a JMI under its contact.
func (t *JobTable) add(contact string, j *JMI) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs[contact] = j
}

// remove forgets a contact (job aborted before it reached the LRM).
func (t *JobTable) remove(contact string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.jobs, contact)
}

// Lookup returns the JMI for a contact.
func (t *JobTable) Lookup(contact string) (*JMI, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[contact]
	return j, ok
}

// Len reports how many JMIs the table holds.
func (t *JobTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}
