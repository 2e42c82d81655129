package gram

import "sync"

// JobTable holds the Job Manager Instances of ONE resource, keyed by
// GRAM job contact, together with the contact ID counter. Every
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
	mu     sync.Mutex
	jobs   map[string]*JMI
	nextID int
}

// NewJobTable creates an empty job table.
func NewJobTable() *JobTable {
	return &JobTable{jobs: make(map[string]*JMI)}
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
