// Package mds fills the Monitoring and Discovery Service role the paper
// attributes to the Globus Toolkit ("mechanisms for ... resource
// monitoring and discovery (MDS)"): a registry where resources publish
// their state and clients discover gatekeepers to submit to.
//
// Resources register a Record (contact address, capacity, load, the VOs
// they serve) with a time-to-live; stale entries expire. Queries filter
// by VO and free capacity. Like every other service in this repository,
// queries can be put behind the authorization callout registry — the
// paper's "pluggable authorization in other components" — via QueryPDP,
// though anonymous discovery (the GT2 default) is also supported.
package mds

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/obs"
)

// Record is one published resource entry.
type Record struct {
	// Name is the resource's unique name (host name).
	Name string `json:"name"`
	// Contact is the gatekeeper's address.
	Contact string `json:"contact"`
	// TotalCPUs and FreeCPUs describe capacity.
	TotalCPUs int `json:"totalCpus"`
	FreeCPUs  int `json:"freeCpus"`
	// QueuedJobs is the local scheduler's backlog.
	QueuedJobs int `json:"queuedJobs"`
	// VOs names the communities the resource serves.
	VOs []string `json:"vos,omitempty"`
	// Expires is when the record lapses unless refreshed.
	Expires time.Time `json:"expires"`
}

// ServesVO reports whether the record lists the VO (an empty list means
// any).
func (r *Record) ServesVO(vo string) bool {
	if len(r.VOs) == 0 {
		return true
	}
	for _, v := range r.VOs {
		if v == vo {
			return true
		}
	}
	return false
}

// Query filters discovery results.
type Query struct {
	// VO restricts to resources serving the community ("" = any).
	VO string
	// MinFreeCPUs restricts to resources with at least this much free
	// capacity.
	MinFreeCPUs int
}

// Directory is the registry (a GIIS in GT2 terms).
type Directory struct {
	mu      sync.Mutex
	entries map[string]*Record
	ttl     time.Duration
	now     func() time.Time
}

// Option configures the directory.
type Option func(*Directory)

// NewDirectory creates an empty directory.
func NewDirectory(opts ...Option) *Directory {
	d := &Directory{
		entries: make(map[string]*Record),
		ttl:     5 * time.Minute,
		now:     time.Now,
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Register publishes (or replaces) a record, stamping its expiry.
func (d *Directory) Register(r Record) error {
	if r.Name == "" || r.Contact == "" {
		return fmt.Errorf("mds: record needs name and contact")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cp := r
	cp.VOs = append([]string(nil), r.VOs...)
	cp.Expires = d.now().Add(d.ttl)
	d.entries[r.Name] = &cp
	return nil
}

// Find returns unexpired records matching the query, best-fit first
// (most free CPUs, then shortest queue, then name).
func (d *Directory) Find(q Query) []Record {
	now := d.now()
	d.mu.Lock()
	var out []Record
	for name, e := range d.entries {
		if !e.Expires.After(now) {
			delete(d.entries, name) // lazy expiry
			continue
		}
		if q.VO != "" && !e.ServesVO(q.VO) {
			continue
		}
		if e.FreeCPUs < q.MinFreeCPUs {
			continue
		}
		cp := *e
		cp.VOs = append([]string(nil), e.VOs...)
		out = append(out, cp)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].FreeCPUs != out[j].FreeCPUs {
			return out[i].FreeCPUs > out[j].FreeCPUs
		}
		if out[i].QueuedJobs != out[j].QueuedJobs {
			return out[i].QueuedJobs < out[j].QueuedJobs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Len reports the number of live records.
func (d *Directory) Len() int {
	return len(d.Find(Query{}))
}

// CalloutMDS is the abstract callout type guarding authenticated
// directory queries.
const CalloutMDS = "globus_mds_authz"

// QueryPDP wraps a directory query in the callout framework: the action
// is "information" and the spec carries the query attributes, so site
// policy can, e.g., restrict discovery to VO members. Each call is one
// request to audit.Enforce, with its own request ID and, when reg has a
// trace store, a trace its audit record resolves to. When log is
// non-nil every decision the wrapper acts on is recorded — discovery
// refusals are part of the audit trail too (nil disables auditing).
// Discovery is read-only, so docs/AUDIT.md's degraded-mode matrix
// allows drop mode here: a thinner trail beats stalled queries.
func QueryPDP(reg *core.Registry, d *Directory, log *audit.Log) func(req *core.Request, q Query) ([]Record, core.Decision) {
	return func(req *core.Request, q Query) ([]Record, core.Decision) {
		// The query func's signature carries no context for callers to
		// cancel, and a directory query has no server to shut down.
		traces := reg.Traces()
		ctx, tr := obs.StartRequest(context.Background(), traces, string(req.Subject))
		defer traces.Publish(tr)
		decision := audit.Enforce(ctx, reg, log, CalloutMDS, req)
		if decision.Effect != core.Permit {
			return nil, decision
		}
		return d.Find(q), decision
	}
}
