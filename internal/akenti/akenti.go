// Package akenti implements an Akenti-style certificate-based
// authorization system (Thompson et al., "Certificate-based Access
// Control for Widely Distributed Resources", USENIX Security '99), the
// first third-party system the paper integrated with its GRAM callouts:
// "This work has recently been tested with the Akenti system representing
// the same policies as described here."
//
// Akenti's model: independent STAKEHOLDERS each publish signed
// use-condition certificates for a resource; users hold signed attribute
// certificates binding attribute=value pairs to their identity. Access is
// granted when, for every stakeholder with use conditions on the
// resource, at least one of that stakeholder's conditions is satisfied by
// the user's trusted attributes. Use conditions may additionally carry
// RSL constraint sets — which is exactly how the paper's policies were
// represented in Akenti.
package akenti

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// Errors reported by the engine.
var (
	ErrUntrustedIssuer = errors.New("akenti: issuer is not trusted")
	ErrBadSignature    = errors.New("akenti: invalid signature")
)

// AttributeCertificate binds attribute=value to a subject, signed by an
// attribute authority.
type AttributeCertificate struct {
	Subject   gsi.DN    `json:"subject"`
	Attribute string    `json:"attribute"`
	Value     string    `json:"value"`
	Issuer    gsi.DN    `json:"issuer"`
	NotBefore time.Time `json:"notBefore"`
	NotAfter  time.Time `json:"notAfter"`
	Signature []byte    `json:"signature"`
}

func (ac *AttributeCertificate) tbs() ([]byte, error) {
	shadow := *ac
	shadow.Signature = nil
	return json.Marshal(&shadow)
}

// SignAttribute issues an attribute certificate.
func SignAttribute(ac *AttributeCertificate, issuer *gsi.Credential) error {
	ac.Issuer = issuer.Subject()
	msg, err := ac.tbs()
	if err != nil {
		return fmt.Errorf("encode attribute certificate: %w", err)
	}
	sig, err := issuer.Sign(msg)
	if err != nil {
		return err
	}
	ac.Signature = sig
	return nil
}

// Requirement is one attribute=value a use condition demands, restricted
// to attribute authorities the stakeholder trusts.
type Requirement struct {
	Attribute string `json:"attribute"`
	Value     string `json:"value"`
	// Issuers lists the attribute authorities whose certificates satisfy
	// the requirement; empty means any issuer the engine trusts.
	Issuers []gsi.DN `json:"issuers,omitempty"`
}

// UseCondition is a stakeholder's signed grant for a resource.
type UseCondition struct {
	Resource string `json:"resource"`
	// Actions the condition covers (policy action names).
	Actions []string `json:"actions"`
	// Requirements the user's attributes must meet (conjunction).
	Requirements []Requirement `json:"requirements"`
	// Constraint optionally restricts the job description, in the
	// paper's policy language (an RSL assertion set, e.g.
	// "(executable = TRANSP)(count<4)"). Empty means unconstrained.
	Constraint string    `json:"constraint,omitempty"`
	Issuer     gsi.DN    `json:"issuer"`
	NotBefore  time.Time `json:"notBefore"`
	NotAfter   time.Time `json:"notAfter"`
	Signature  []byte    `json:"signature"`
}

func (uc *UseCondition) tbs() ([]byte, error) {
	shadow := *uc
	shadow.Signature = nil
	return json.Marshal(&shadow)
}

// SignUseCondition issues a use condition from a stakeholder credential.
func SignUseCondition(uc *UseCondition, stakeholder *gsi.Credential) error {
	uc.Issuer = stakeholder.Subject()
	msg, err := uc.tbs()
	if err != nil {
		return fmt.Errorf("encode use condition: %w", err)
	}
	sig, err := stakeholder.Sign(msg)
	if err != nil {
		return err
	}
	uc.Signature = sig
	return nil
}

// Engine is the Akenti policy engine for one administrative domain.
type Engine struct {
	mu sync.RWMutex
	// stakeholders and attribute authorities trusted by this engine,
	// keyed by DN.
	stakeholders map[gsi.DN]ed25519.PublicKey
	attrIssuers  map[gsi.DN]ed25519.PublicKey
	// conditions per resource.
	conditions map[string][]*UseCondition
	// attribute certificate repository, per subject (Akenti fetches
	// these from directories; we store them directly).
	attrs map[gsi.DN][]*AttributeCertificate
	now   func() time.Time
}

// Option configures the engine.
type Option func(*Engine)

// WithClock sets the engine's time source.
func WithClock(now func() time.Time) Option {
	return func(e *Engine) { e.now = now }
}

// NewEngine creates an empty engine.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		stakeholders: make(map[gsi.DN]ed25519.PublicKey),
		attrIssuers:  make(map[gsi.DN]ed25519.PublicKey),
		conditions:   make(map[string][]*UseCondition),
		attrs:        make(map[gsi.DN][]*AttributeCertificate),
		now:          time.Now,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// TrustStakeholder registers a stakeholder certificate.
func (e *Engine) TrustStakeholder(cert *gsi.Certificate) {
	e.mu.Lock()
	e.stakeholders[cert.Subject] = ed25519.PublicKey(cert.PublicKey)
	e.mu.Unlock()
}

// TrustAttributeIssuer registers an attribute authority certificate.
func (e *Engine) TrustAttributeIssuer(cert *gsi.Certificate) {
	e.mu.Lock()
	e.attrIssuers[cert.Subject] = ed25519.PublicKey(cert.PublicKey)
	e.mu.Unlock()
}

// AddUseCondition installs a use condition after verifying its signature
// against a trusted stakeholder.
func (e *Engine) AddUseCondition(uc *UseCondition) error {
	e.mu.RLock()
	key, ok := e.stakeholders[uc.Issuer]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: stakeholder %s", ErrUntrustedIssuer, uc.Issuer)
	}
	msg, err := uc.tbs()
	if err != nil {
		return err
	}
	if !gsi.ValidSignature(key, msg, uc.Signature) {
		return ErrBadSignature
	}
	if uc.Constraint != "" {
		// Fail early on malformed constraints.
		if _, err := rsl.Parse("&" + uc.Constraint); err != nil {
			return fmt.Errorf("akenti: bad constraint: %w", err)
		}
	}
	e.mu.Lock()
	e.conditions[uc.Resource] = append(e.conditions[uc.Resource], uc)
	e.mu.Unlock()
	return nil
}

// StoreAttribute verifies and stores an attribute certificate in the
// repository.
func (e *Engine) StoreAttribute(ac *AttributeCertificate) error {
	e.mu.RLock()
	key, ok := e.attrIssuers[ac.Issuer]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: attribute issuer %s", ErrUntrustedIssuer, ac.Issuer)
	}
	msg, err := ac.tbs()
	if err != nil {
		return err
	}
	if !gsi.ValidSignature(key, msg, ac.Signature) {
		return ErrBadSignature
	}
	e.mu.Lock()
	e.attrs[ac.Subject] = append(e.attrs[ac.Subject], ac)
	e.mu.Unlock()
	return nil
}

// Authorize runs the Akenti decision for subject performing action on
// resource with the given job description. Every stakeholder holding
// conditions on the resource must grant (one of their conditions covering
// the action must be satisfied); a resource with no conditions denies.
func (e *Engine) Authorize(resource string, subject gsi.DN, action string, spec *rsl.Spec) (bool, string) {
	now := e.now()
	e.mu.RLock()
	conds := append([]*UseCondition(nil), e.conditions[resource]...)
	attrs := append([]*AttributeCertificate(nil), e.attrs[subject]...)
	e.mu.RUnlock()

	if len(conds) == 0 {
		return false, fmt.Sprintf("no use conditions published for resource %q", resource)
	}

	// Live attributes for the subject.
	live := make(map[string][]*AttributeCertificate)
	for _, ac := range attrs {
		if now.Before(ac.NotBefore) || now.After(ac.NotAfter) {
			continue
		}
		live[ac.Attribute+"="+ac.Value] = append(live[ac.Attribute+"="+ac.Value], ac)
	}

	// Group conditions by stakeholder; each must grant.
	byStakeholder := make(map[gsi.DN][]*UseCondition)
	for _, uc := range conds {
		byStakeholder[uc.Issuer] = append(byStakeholder[uc.Issuer], uc)
	}
	for issuer, ucs := range byStakeholder {
		granted := false
		var lastReason string
		for _, uc := range ucs {
			ok, reason := e.conditionSatisfied(uc, subject, action, spec, live, now)
			if ok {
				granted = true
				break
			}
			lastReason = reason
		}
		if !granted {
			if lastReason == "" {
				lastReason = "no condition covers action " + action
			}
			return false, fmt.Sprintf("stakeholder %s does not grant: %s", issuer, lastReason)
		}
	}
	return true, "all stakeholders grant"
}

func (e *Engine) conditionSatisfied(uc *UseCondition, subject gsi.DN, action string, spec *rsl.Spec, live map[string][]*AttributeCertificate, now time.Time) (bool, string) {
	if now.Before(uc.NotBefore) || now.After(uc.NotAfter) {
		return false, "use condition expired"
	}
	if !containsString(uc.Actions, action) {
		return false, "action not covered"
	}
	for _, req := range uc.Requirements {
		certs := live[req.Attribute+"="+req.Value]
		if len(certs) == 0 {
			return false, fmt.Sprintf("missing attribute %s=%s", req.Attribute, req.Value)
		}
		if len(req.Issuers) > 0 {
			okIssuer := false
			for _, c := range certs {
				for _, want := range req.Issuers {
					if c.Issuer == want {
						okIssuer = true
					}
				}
			}
			if !okIssuer {
				return false, fmt.Sprintf("attribute %s=%s not from a stakeholder-trusted issuer", req.Attribute, req.Value)
			}
		}
	}
	if uc.Constraint != "" {
		set, err := parseConstraint(uc.Constraint)
		if err != nil {
			return false, "malformed constraint"
		}
		preq := &policy.Request{Subject: subject, Action: action, Spec: spec}
		if ok, msg := set.Satisfied(preq); !ok {
			return false, "constraint not satisfied: " + msg
		}
	}
	return true, ""
}

func parseConstraint(text string) (*policy.AssertionSet, error) {
	node, err := rsl.Parse("&" + text)
	if err != nil {
		return nil, err
	}
	set := &policy.AssertionSet{}
	var walk func(rsl.Node) error
	walk = func(n rsl.Node) error {
		switch v := n.(type) {
		case *rsl.Relation:
			set.Clauses = append(set.Clauses, v)
			return nil
		case *rsl.Boolean:
			if v.Op != rsl.And {
				return fmt.Errorf("constraint must be a conjunction")
			}
			for _, c := range v.Children {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("unexpected node %T", n)
		}
	}
	if err := walk(node); err != nil {
		return nil, err
	}
	return set, nil
}

// PDP adapts the engine to the framework's callout interface for a fixed
// resource name.
type PDP struct {
	// Engine is the Akenti engine to consult.
	Engine *Engine
	// Resource is the Akenti resource name this PEP protects.
	Resource string
}

var _ core.PDP = (*PDP)(nil)

// Name implements core.PDP.
func (p *PDP) Name() string { return "akenti:" + p.Resource }

// Authorize implements core.PDP.
func (p *PDP) Authorize(_ context.Context, req *core.Request) core.Decision {
	ok, reason := p.Engine.Authorize(p.Resource, req.Subject, req.Action, req.Spec)
	if ok {
		return core.PermitDecision(p.Name(), reason)
	}
	return core.DenyDecision(p.Name(), reason)
}

// RegisterDriver installs the "akenti" callout driver backed by a shared
// engine; params: resource=<name>.
func RegisterDriver(r *core.Registry, engine *Engine) {
	r.RegisterDriver("akenti", func(params map[string]string) (core.PDP, error) {
		res := params["resource"]
		if res == "" {
			return nil, fmt.Errorf("akenti driver requires resource=")
		}
		return &PDP{Engine: engine, Resource: res}, nil
	})
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
