// Package cas implements a Community Authorization Service in the style
// of Pearlman et al. ("A Community Authorization Service for Group
// Collaboration", POLICY 2002), the second third-party system the paper
// reports integrating: "In order to show generality of our approach, we
// are also experimenting with the Community Authorization Service (CAS)."
//
// CAS inverts the trust arrangement of per-user policy files: the
// community (VO) runs a server that knows the community policy; a user
// asks CAS for a RESTRICTED CREDENTIAL that embeds exactly the rights the
// community grants them; the resource then only needs to trust the CAS
// signing identity and enforce the rights carried in the credential
// (combined, as always, with the resource owner's own policy). The
// paper's remark that "in a real system the VO policies would be carried
// in the VO credentials" is precisely this arrangement.
package cas

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/policy"
)

// Server is the community authorization server.
type Server struct {
	community string
	cred      *gsi.Credential

	mu  sync.RWMutex
	pol *policy.Policy
	ttl time.Duration
	now func() time.Time
}

// Option configures the server.
type Option func(*Server)

// NewServer creates a CAS for a community. cred is the CAS signing
// credential; pol is the community policy in the paper's language.
func NewServer(community string, cred *gsi.Credential, pol *policy.Policy, opts ...Option) *Server {
	s := &Server{
		community: community,
		cred:      cred,
		pol:       pol,
		ttl:       4 * time.Hour,
		now:       time.Now,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Community returns the community name.
func (s *Server) Community() string { return s.community }

// Certificate returns the CAS signing certificate resources must trust.
func (s *Server) Certificate() *gsi.Certificate { return s.cred.Leaf() }

// Grant issues a restricted credential for a community member: an
// assertion embedding the subset of the community policy whose
// statements apply to the member. A member with no applicable statements
// receives an error rather than an empty (useless) credential.
func (s *Server) Grant(member gsi.DN) (*gsi.Assertion, error) {
	s.mu.RLock()
	pol := s.pol
	s.mu.RUnlock()

	stmts := pol.ApplicableTo(member)
	if len(stmts) == 0 {
		return nil, fmt.Errorf("cas: community %s grants no rights to %s", s.community, member)
	}
	sub := &policy.Policy{Source: "CAS:" + s.community, Statements: stmts}
	now := s.now()
	a := &gsi.Assertion{
		VO:        s.community,
		Holder:    member,
		Policy:    sub.Unparse(),
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(s.ttl),
	}
	if err := gsi.SignAssertion(a, s.cred); err != nil {
		return nil, fmt.Errorf("sign restricted credential: %w", err)
	}
	return a, nil
}

// PDP is the resource-side enforcement point for CAS credentials: it
// verifies that the request carries a restricted credential from the
// trusted CAS and evaluates the request against the policy EMBEDDED in
// that credential. The resource needs no per-user state.
type PDP struct {
	// Community is the community whose credentials are accepted.
	Community string
	// Cert is the trusted CAS signing certificate.
	Cert *gsi.Certificate
	// Now is the time source (nil means time.Now).
	Now func() time.Time
}

var _ core.PDP = (*PDP)(nil)

// Name implements core.PDP.
func (p *PDP) Name() string { return "cas:" + p.Community }

// Authorize implements core.PDP.
func (p *PDP) Authorize(_ context.Context, req *core.Request) core.Decision {
	now := time.Now
	if p.Now != nil {
		now = p.Now
	}
	var cred *gsi.Assertion
	for _, a := range req.Assertions {
		if a.VO != p.Community || a.Policy == "" {
			continue
		}
		if err := gsi.VerifyAssertion(a, p.Cert, req.Subject, now()); err != nil {
			return core.DenyDecision(p.Name(), fmt.Sprintf("restricted credential rejected: %v", err))
		}
		cred = a
		break
	}
	if cred == nil {
		return core.DenyDecision(p.Name(), fmt.Sprintf("no %s restricted credential presented", p.Community))
	}
	embedded, err := policy.ParseString(cred.Policy, "CAS:"+p.Community)
	if err != nil {
		return core.ErrorDecision(p.Name(), fmt.Sprintf("embedded policy unparseable: %v", err))
	}
	d := embedded.Evaluate(&policy.Request{
		Subject:  req.Subject,
		Action:   req.Action,
		JobOwner: req.JobOwner,
		Spec:     req.Spec,
	})
	if d.Allowed {
		return core.PermitDecision(p.Name(), d.Reason)
	}
	return core.DenyDecision(p.Name(), d.Reason)
}

// RegisterDriver installs the "cas-enforcement" callout driver; the
// server's certificate is captured at registration time. Params:
// community=<name> (defaults to the server's community).
//
//authlint:ignore deadexport experiments_test.go binds the CAS callout through it
func RegisterDriver(r *core.Registry, server *Server) {
	r.RegisterDriver("cas-enforcement", func(params map[string]string) (core.PDP, error) {
		community := params["community"]
		if community == "" {
			community = server.Community()
		}
		return &PDP{Community: community, Cert: server.Certificate()}, nil
	})
}
