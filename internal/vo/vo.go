// Package vo models a Virtual Organization: its membership, roles,
// jobtag registry, credential issuance and policy administration.
//
// The paper's use case (§2) structures a VO into two primary member
// classes — a development group that runs many kinds of processes but may
// only consume small amounts of resources, and an analysis group that
// runs sanctioned application services with large resource allocations —
// plus administrators entitled to manage any job carrying a VO jobtag.
// This package provides the bookkeeping for that structure and a policy
// builder that turns it into the paper's policy language.
package vo

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/policy"
)

// Canonical VO roles from the use case.
const (
	// RoleDeveloper develops, installs and debugs the VO's application
	// services.
	RoleDeveloper = "developer"
	// RoleAnalyst performs analysis using the application services.
	RoleAnalyst = "analyst"
	// RoleAdmin may manage any job in the VO's jobtag groups.
	RoleAdmin = "admin"
)

// Member is a VO participant.
type Member struct {
	Identity gsi.DN
	Roles    []string
	Groups   []string
	// Jobtags the member may submit jobs under.
	Jobtags []string
}

// HasRole reports whether the member holds the role.
func (m *Member) HasRole(role string) bool {
	for _, r := range m.Roles {
		if r == role {
			return true
		}
	}
	return false
}

// Jobtag describes a VO job management group (§5.1: "a jobtag indicates
// the job membership in a group of jobs for which policy can be
// defined").
type Jobtag struct {
	Name        string
	Description string
	// ManagerRole is the role whose holders may manage jobs in the group.
	ManagerRole string
}

// VO is a virtual organization.
type VO struct {
	name string
	cred *gsi.Credential

	mu      sync.RWMutex
	members map[gsi.DN]*Member
	jobtags map[string]*Jobtag
}

// assertionLifetime is how long an issued assertion stays valid.
const assertionLifetime = 8 * time.Hour

// New creates a VO. cred is the VO's signing credential (issued by a CA
// the resources trust).
func New(name string, cred *gsi.Credential) *VO {
	v := &VO{
		name:    name,
		cred:    cred,
		members: make(map[gsi.DN]*Member),
		jobtags: make(map[string]*Jobtag),
	}
	return v
}

// Name returns the VO name.
func (v *VO) Name() string { return v.name }

// Certificate returns the VO's certificate, used by resources to verify
// assertions.
func (v *VO) Certificate() *gsi.Certificate { return v.cred.Leaf() }

// AddMember enrolls (or updates) a member.
func (v *VO) AddMember(m *Member) error {
	if !m.Identity.Valid() {
		return fmt.Errorf("vo: invalid member identity %q", m.Identity)
	}
	cp := *m
	cp.Roles = append([]string(nil), m.Roles...)
	cp.Groups = append([]string(nil), m.Groups...)
	cp.Jobtags = append([]string(nil), m.Jobtags...)
	v.mu.Lock()
	v.members[m.Identity] = &cp
	v.mu.Unlock()
	return nil
}

// Members returns all members sorted by identity.
func (v *VO) Members() []*Member {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*Member, 0, len(v.members))
	for _, m := range v.members {
		cp := *m
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Identity < out[j].Identity })
	return out
}

// DefineJobtag registers a job management group. Jobtags are "statically
// defined by a policy administrator" in the prototype.
func (v *VO) DefineJobtag(tag Jobtag) error {
	if tag.Name == "" {
		return fmt.Errorf("vo: jobtag needs a name")
	}
	v.mu.Lock()
	if _, exists := v.jobtags[tag.Name]; exists {
		v.mu.Unlock()
		return fmt.Errorf("vo: jobtag %q already defined", tag.Name)
	}
	cp := tag
	v.jobtags[tag.Name] = &cp
	v.mu.Unlock()
	return nil
}

// JobtagDef returns the definition of a jobtag.
func (v *VO) JobtagDef(name string) (*Jobtag, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	t, ok := v.jobtags[name]
	if !ok {
		return nil, false
	}
	cp := *t
	return &cp, true
}

// Jobtags returns all registered jobtags sorted by name.
func (v *VO) Jobtags() []*Jobtag {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*Jobtag, 0, len(v.jobtags))
	for _, t := range v.jobtags {
		cp := *t
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// IssueAssertion signs a VO attribute assertion for a member, the
// credential the user presents alongside their personal Grid credential
// (interaction model step 1).
func (v *VO) IssueAssertion(id gsi.DN) (*gsi.Assertion, error) {
	v.mu.RLock()
	m, ok := v.members[id]
	v.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("vo: %s is not a member of %s", id, v.name)
	}
	now := time.Now()
	a := &gsi.Assertion{
		VO:        v.name,
		Holder:    id,
		Groups:    append([]string(nil), m.Groups...),
		Roles:     append([]string(nil), m.Roles...),
		Jobtags:   append([]string(nil), m.Jobtags...),
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(assertionLifetime),
	}
	if err := gsi.SignAssertion(a, v.cred); err != nil {
		return nil, fmt.Errorf("sign assertion: %w", err)
	}
	return a, nil
}

// MembershipPDP returns a PDP that verifies the requester presents a
// valid assertion from this VO — the "VO credential" gate. Jobs under a
// jobtag additionally require the assertion to entitle the holder to that
// jobtag (so a user cannot place jobs into management groups the VO never
// gave them). The gate is a pure restriction: on success it ABSTAINS
// (NotApplicable) rather than permits, so membership alone never
// authorizes anything — a grant must come from policy.
func (v *VO) MembershipPDP() core.PDP {
	name := "vo-membership:" + v.name
	return core.PDPFunc{ID: name, Fn: func(_ context.Context, req *core.Request) core.Decision {
		var found *gsi.Assertion
		for _, a := range req.Assertions {
			if a.VO == v.name && a.Holder == req.Subject {
				found = a
				break
			}
		}
		if found == nil {
			return core.DenyDecision(name, fmt.Sprintf("no %s assertion presented by %s", v.name, req.Subject))
		}
		if req.Action == policy.ActionStart && req.Spec != nil && req.Spec.Has(policy.AttrJobtag) {
			tag := req.Spec.Get(policy.AttrJobtag)
			if _, defined := v.JobtagDef(tag); !defined {
				return core.DenyDecision(name, fmt.Sprintf("jobtag %q is not defined by VO %s", tag, v.name))
			}
			if !found.AllowsJobtag(tag) {
				return core.DenyDecision(name, fmt.Sprintf("assertion does not entitle %s to jobtag %q", req.Subject, tag))
			}
		}
		return core.AbstainDecision(name, "valid VO assertion (gate passed)")
	}}
}

// PolicyBuilder assembles a VO policy from role templates, producing text
// in the paper's policy language.
type PolicyBuilder struct {
	vo *VO
	// DeveloperExecutables are the processes the development group may
	// run (compilers, debuggers, application services under test).
	DeveloperExecutables []string
	// DeveloperMaxCount caps the processors a developer job may use.
	DeveloperMaxCount int
	// DeveloperMaxTime caps developer job wall time (minutes).
	DeveloperMaxTime int
	// AnalystExecutables are the sanctioned application services.
	AnalystExecutables []string
	// ServiceDirectory is where sanctioned executables live.
	ServiceDirectory string
}

// NewPolicyBuilder returns a builder with the use case's defaults.
func NewPolicyBuilder(v *VO) *PolicyBuilder {
	return &PolicyBuilder{
		vo:                   v,
		DeveloperExecutables: []string{"gcc", "gdb", "make"},
		DeveloperMaxCount:    2,
		DeveloperMaxTime:     30,
		AnalystExecutables:   []string{"TRANSP"},
		ServiceDirectory:     "/sandbox/services",
	}
}

// Build renders the VO policy. Every start must carry a jobtag (so
// VO-wide management policy can be written against it); developers get
// tight resource limits; analysts get the sanctioned services; admins may
// cancel/signal/inspect every job in the jobtag groups their role
// manages.
func (b *PolicyBuilder) Build() (*policy.Policy, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Policy generated for VO %s\n", b.vo.Name())

	// VO-wide requirement: job invocations must join a management group.
	sb.WriteString("/O=Grid: &(action = start)(jobtag != NULL)\n")

	for _, m := range b.vo.Members() {
		var sets []string
		tags := strings.Join(m.Jobtags, " ")
		if tags == "" {
			tags = "NULL" // member without jobtags cannot satisfy the requirement
		}
		if m.HasRole(RoleDeveloper) {
			sets = append(sets, fmt.Sprintf(
				"&(action = start)(executable = %s)(jobtag = %s)(count<=%d)(maxtime<=%d)",
				strings.Join(b.DeveloperExecutables, " "), tags,
				b.DeveloperMaxCount, b.DeveloperMaxTime))
		}
		if m.HasRole(RoleAnalyst) {
			sets = append(sets, fmt.Sprintf(
				"&(action = start)(executable = %s)(directory = %s)(jobtag = %s)",
				strings.Join(b.AnalystExecutables, " "), b.ServiceDirectory, tags))
		}
		if m.HasRole(RoleAdmin) {
			managed := b.managedTags(m)
			if len(managed) > 0 {
				sets = append(sets, fmt.Sprintf(
					"&(action = cancel information signal)(jobtag = %s)",
					strings.Join(managed, " ")))
			}
		}
		// Everyone may manage their own jobs (the GT2 default, now
		// expressed in policy).
		sets = append(sets, "&(action = cancel information signal)(jobowner = self)")
		fmt.Fprintf(&sb, "%s: %s\n", m.Identity, strings.Join(sets, " "))
	}
	return policy.ParseString(sb.String(), "VO:"+b.vo.Name())
}

func (b *PolicyBuilder) managedTags(m *Member) []string {
	var out []string
	for _, t := range b.vo.Jobtags() {
		if t.ManagerRole != "" && m.HasRole(t.ManagerRole) {
			out = append(out, t.Name)
		}
	}
	return out
}
