// Package core is a fixture stub of gridauth/internal/core: just
// enough surface (PDP and its capability interfaces, Decision/Effect,
// Registry) for the authlint analyzers, which match the core package
// structurally by name and declarations rather than by import path.
package core

import "context"

// Effect is the outcome class of an authorization decision.
type Effect int

// Decision effects.
const (
	Permit Effect = iota + 1
	Deny
	Error
	NotApplicable
)

// Request is an authorization request.
type Request struct {
	Subject string
	Action  string
}

// Decision is a PDP's answer.
type Decision struct {
	Effect Effect
	Source string
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

// PDP is a policy decision point.
type PDP interface {
	Name() string
	Authorize(ctx context.Context, req *Request) Decision
}

// NonBlockingPDP marks purely in-process PDPs; the deadline is waived.
type NonBlockingPDP interface {
	PDP
	NonBlocking() bool
}

// EffectfulPDP marks PDPs whose evaluation mutates state.
type EffectfulPDP interface {
	PDP
	SideEffecting() bool
}

// Registry dispatches callout types to PDP chains.
type Registry struct{}

// InvokeContext evaluates a request against a callout type's chain.
func (r *Registry) InvokeContext(ctx context.Context, calloutType string, req *Request) Decision {
	if ctx.Err() != nil {
		return ErrorDecision("registry:"+calloutType, ctx.Err().Error())
	}
	return DenyDecision("registry:"+calloutType, "stub")
}
