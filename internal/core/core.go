// Package core implements the authorization framework of the paper: the
// request/decision model shared by all policy evaluation points (PEPs),
// the policy decision point (PDP) interface, decision combination from
// multiple administrative sources, and the runtime-configurable
// authorization callout mechanism of §5.2.
//
// The paper inserts a PEP into the GRAM Job Manager through a "callout
// API": the JM passes the requesting user's credential, the job
// initiator's credential, the action, a job identifier and the RSL job
// description, and receives success or an authorization error. Callouts
// are configured at runtime — in the C prototype by naming a dynamic
// library and symbol in a configuration file loaded with GNU Libtool's
// dlopen. This package reproduces that architecture with a driver
// registry standing in for dlopen: a configuration file (or API call)
// binds an abstract callout type such as "globus_gram_jobmanager_authz"
// to a named driver plus parameters.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gridauth/internal/gsi"
	"gridauth/internal/rsl"
)

// Effect is the outcome class of an authorization decision.
type Effect int

// Decision effects. The paper's callout API distinguishes success,
// authorization denial, and authorization *system* failure, which map to
// Permit, Deny and Error. NotApplicable exists for decision COMBINATION:
// it is how a policy source that only expresses restrictions abstains
// from granting (e.g. a resource owner whose policy says "no reserved
// queues" but leaves grants to the VO). A lone NotApplicable never
// authorizes anything — the combiner requires at least one Permit.
const (
	Permit Effect = iota + 1
	Deny
	Error
	NotApplicable
)

// String returns the effect name.
func (e Effect) String() string {
	switch e {
	case Permit:
		return "permit"
	case Deny:
		return "deny"
	case Error:
		return "error"
	case NotApplicable:
		return "not-applicable"
	default:
		return fmt.Sprintf("Effect(%d)", int(e))
	}
}

// Request carries everything the callout API passes to a PEP (§5.2): the
// credential of the requesting user, the identity of the job initiator,
// the action, a unique job identifier and the job description.
type Request struct {
	// Subject is the verified Grid identity of the requester.
	Subject gsi.DN
	// Assertions holds the verified VO attribute assertions presented
	// with the request.
	Assertions []*gsi.Assertion
	// Action is one of the policy action names (start, cancel,
	// information, signal).
	Action string
	// JobID uniquely identifies the targeted job; empty at startup
	// before an ID is assigned.
	JobID string
	// JobOwner is the Grid identity that initiated the targeted job;
	// empty at startup.
	JobOwner gsi.DN
	// Spec is the RSL job description.
	Spec *rsl.Spec
	// Account is the local account the request asked to run under, if
	// any.
	Account string
	// Time is the evaluation time; the zero value means "now".
	Time time.Time
}

// At returns the request's evaluation time, defaulting to time.Now.
func (r *Request) At() time.Time {
	if r.Time.IsZero() {
		return time.Now()
	}
	return r.Time
}

// Decision is the result a PDP returns through the callout API.
type Decision struct {
	Effect Effect
	// Source names the deciding policy or subsystem.
	Source string
	// Reason is a human-readable explanation (the paper extends the GRAM
	// protocol to return such reasons to the client).
	Reason string
}

// PermitDecision builds a permit.
func PermitDecision(source, reason string) Decision {
	return Decision{Effect: Permit, Source: source, Reason: reason}
}

// DenyDecision builds a denial.
func DenyDecision(source, reason string) Decision {
	return Decision{Effect: Deny, Source: source, Reason: reason}
}

// ErrorDecision builds an authorization-system-failure decision.
func ErrorDecision(source, reason string) Decision {
	return Decision{Effect: Error, Source: source, Reason: reason}
}

// AbstainDecision builds a NotApplicable decision: the source neither
// grants nor objects.
func AbstainDecision(source, reason string) Decision {
	return Decision{Effect: NotApplicable, Source: source, Reason: reason}
}

// PDP is a policy decision point: anything that can answer an
// authorization request. The plaintext policy engine, Akenti and CAS all
// implement it.
type PDP interface {
	// Name identifies the PDP for decision attribution.
	Name() string
	// Authorize decides the request. Implementations must not mutate it.
	Authorize(req *Request) Decision
}

// PDPFunc adapts a function to the PDP interface.
type PDPFunc struct {
	// ID is the PDP name.
	ID string
	// Fn decides requests.
	Fn func(req *Request) Decision
}

// Name implements PDP.
func (p PDPFunc) Name() string { return p.ID }

// Authorize implements PDP.
func (p PDPFunc) Authorize(req *Request) Decision { return p.Fn(req) }

var _ PDP = PDPFunc{}

// CombineMode selects how decisions from multiple PDPs are combined.
type CombineMode int

// Combination algorithms. The paper's architecture requires
// RequireAllPermit: "If the request is authorized by both PEPs" — the
// resource owner's policy AND the VO's policy must each permit. The
// others exist for ablation (see DESIGN.md).
const (
	// RequireAllPermit permits only when every PDP permits. Any Error is
	// an Error; otherwise any Deny is a Deny.
	RequireAllPermit CombineMode = iota + 1
	// DenyOverrides denies if any PDP denies, permits if at least one
	// permits and none denies.
	DenyOverrides
	// PermitOverrides permits if any PDP permits.
	PermitOverrides
	// FirstApplicable returns the first non-Error decision.
	FirstApplicable
)

// String returns the mode name.
func (m CombineMode) String() string {
	switch m {
	case RequireAllPermit:
		return "require-all-permit"
	case DenyOverrides:
		return "deny-overrides"
	case PermitOverrides:
		return "permit-overrides"
	case FirstApplicable:
		return "first-applicable"
	default:
		return fmt.Sprintf("CombineMode(%d)", int(m))
	}
}

// Combined is a PDP that merges the decisions of several PDPs.
type Combined struct {
	mode   CombineMode
	pdps   []PDP
	frozen string // see freezeName
}

// NewCombined builds a combining PDP. With no children it denies
// everything (default deny).
func NewCombined(mode CombineMode, pdps ...PDP) *Combined {
	return &Combined{mode: mode, pdps: append([]PDP(nil), pdps...)}
}

var (
	_ PDP        = (*Combined)(nil)
	_ ContextPDP = (*Combined)(nil)
)

// Name implements PDP.
func (c *Combined) Name() string {
	if c.frozen != "" {
		return c.frozen
	}
	return combinedName(c.mode.String(), c.pdps)
}

// freezeName computes the name once. Registry calls it on the chains it
// prebuilds, whose members are tracedPDPs with names already frozen at
// wrap time, so every permit and default deny of the chain stops paying
// for a walk and a join that can only give the same string.
func (c *Combined) freezeName() { c.frozen = c.Name() }

// combinedName renders a combiner's name: prefix(child,child,...).
func combinedName(prefix string, pdps []PDP) string {
	names := make([]string, len(pdps))
	for i, p := range pdps {
		names[i] = p.Name()
	}
	return prefix + "(" + strings.Join(names, ",") + ")"
}

// Authorize implements PDP.
func (c *Combined) Authorize(req *Request) Decision {
	return combineDecisions(c.mode, c.Name, len(c.pdps), func(i int) Decision {
		return c.pdps[i].Authorize(req)
	})
}

// AuthorizeContext implements ContextPDP: the caller's context reaches
// every context-aware child (strictly in configuration order, as
// Authorize would evaluate them), so cancellation — and request-scoped
// values like a decision trace — propagate through the chain.
func (c *Combined) AuthorizeContext(ctx context.Context, req *Request) Decision {
	return combineDecisions(c.mode, c.Name, len(c.pdps), func(i int) Decision {
		return AuthorizeWithContext(ctx, c.pdps[i], req)
	})
}

// combineDecisions resolves the combined decision of n children under a
// combination mode. Child decisions are obtained through get, strictly in
// configuration order, and get is not called for children the resolution
// no longer needs (early exit), so a side-effecting child placed last
// runs only for requests every earlier source accepted.
//
// name is called lazily because building a combined name walks all
// children; decisions attributed to a single child never pay for it.
func combineDecisions(mode CombineMode, name func() string, n int, get func(int) Decision) Decision {
	if n == 0 {
		return DenyDecision(name(), "no policy decision points configured (default deny)")
	}
	switch mode {
	case RequireAllPermit:
		// The paper's rule: every source must accept the request (no
		// denials), and at least one must positively grant it; sources
		// that only express restrictions abstain.
		var (
			reasons []string
			permits int
		)
		for i := 0; i < n; i++ {
			d := get(i)
			switch d.Effect {
			case Error:
				return d
			case Deny:
				return DenyDecision(d.Source, d.Reason)
			case Permit:
				permits++
				reasons = append(reasons, d.Source+": "+d.Reason)
			case NotApplicable:
				// abstention: no objection, no grant
			}
		}
		if permits == 0 {
			return DenyDecision(name(), "no policy source grants the request (default deny)")
		}
		return PermitDecision(name(), strings.Join(reasons, "; "))
	case DenyOverrides:
		var permit *Decision
		for i := 0; i < n; i++ {
			d := get(i)
			switch d.Effect {
			case Error:
				return d
			case Deny:
				return d
			case Permit:
				if permit == nil {
					permit = &d
				}
			case NotApplicable:
			}
		}
		if permit != nil {
			return *permit
		}
		return DenyDecision(name(), "no permit")
	case PermitOverrides:
		var firstDeny *Decision
		for i := 0; i < n; i++ {
			d := get(i)
			switch d.Effect {
			case Permit:
				return d
			case Deny, Error:
				if firstDeny == nil {
					firstDeny = &d
				}
			case NotApplicable:
			}
		}
		if firstDeny != nil {
			return *firstDeny
		}
		return DenyDecision(name(), "no permit")
	case FirstApplicable:
		for i := 0; i < n; i++ {
			d := get(i)
			if d.Effect == Permit || d.Effect == Deny {
				return d
			}
		}
		return DenyDecision(name(), "no applicable decision")
	default:
		return ErrorDecision(name(), "unknown combination mode")
	}
}

// AuthorizationError is the error form of a non-permit decision, used
// where an error return is more natural than a Decision (e.g. the GRAM
// protocol layer).
type AuthorizationError struct {
	Decision Decision
}

// Error implements the error interface.
func (e *AuthorizationError) Error() string {
	return fmt.Sprintf("authorization %s by %s: %s", e.Decision.Effect, e.Decision.Source, e.Decision.Reason)
}

// ErrDenied matches any authorization denial via errors.Is.
var ErrDenied = errors.New("authorization denied")

// Is implements errors.Is support: denials match ErrDenied.
func (e *AuthorizationError) Is(target error) bool {
	return target == ErrDenied && e.Decision.Effect == Deny
}

// CheckDecision converts a decision to an error: nil for permits, an
// *AuthorizationError otherwise.
func CheckDecision(d Decision) error {
	if d.Effect == Permit {
		return nil
	}
	return &AuthorizationError{Decision: d}
}
