package core

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"

	"gridauth/internal/policy"
)

// PolicyPDP adapts the plaintext policy engine (internal/policy) to the
// PDP interface. This is the paper's prototype configuration:
// "we experimented with policies written in plain text files on the
// resource. These files included both local resource and VO policies."
//
// Evaluation runs on the compiled form (policy.Compiled), built lazily
// on first use and cached until the Policy field is swapped.
type PolicyPDP struct {
	// Policy is the policy to evaluate.
	Policy *policy.Policy

	// compiled caches the compiled form of Policy. It is validated by
	// snapshot identity, so replacing Policy invalidates it implicitly.
	compiled atomic.Pointer[policy.Compiled]
}

var _ NonBlockingPDP = (*PolicyPDP)(nil)

// Name implements PDP.
func (p *PolicyPDP) Name() string { return "policy:" + p.Policy.Source }

// NonBlocking implements NonBlockingPDP: evaluation is an in-memory
// scan of parsed statements and cannot hang.
func (p *PolicyPDP) NonBlocking() bool { return true }

// Authorize implements PDP. In-process policy evaluation is
// microsecond-scale and cannot hang, so honouring the context is a
// pre-check: a dead context fails closed with Error, a live one
// evaluates synchronously.
func (p *PolicyPDP) Authorize(ctx context.Context, req *Request) Decision {
	if err := ctx.Err(); err != nil {
		return ErrorDecision(p.Name(), "request abandoned: "+err.Error())
	}
	return evaluatePolicy(p.Name(), p.Compiled(), req)
}

// Compiled returns the compiled form of the current Policy, compiling
// and caching it on first use; whoever assembles a resource calls it at
// load so no request pays for compilation. Concurrent first calls may
// compile redundantly; all results are equivalent and any one wins.
func (p *PolicyPDP) Compiled() *policy.Compiled {
	if c := p.compiled.Load(); c != nil && c.Policy() == p.Policy {
		return c
	}
	c := policy.Compile(p.Policy)
	p.compiled.Store(c)
	return c
}

// evaluatePolicy runs one compiled policy over a request and maps the
// engine's ternary outcome onto decision effects.
func evaluatePolicy(name string, pol *policy.Compiled, req *Request) Decision {
	d := pol.Evaluate(&policy.Request{
		Subject:  req.Subject,
		Action:   req.Action,
		JobOwner: req.JobOwner,
		Spec:     req.Spec,
	})
	switch {
	case d.Allowed:
		return PermitDecision(name, d.Reason)
	case d.Applicable:
		return DenyDecision(name, d.Reason)
	default:
		// The policy neither grants nor objects: abstain, so a
		// restrictions-only source (e.g. the resource owner's "(queue !=
		// fast)" rule) does not veto requests the VO granted. Overall
		// default-deny is preserved by the combiner.
		return AbstainDecision(name, d.Reason)
	}
}

// StorePDP adapts a policy.Store — a mutable holder of the current
// policy of one administrative source — to the PDP interface. Use it
// instead of PolicyPDP when the policy can change at runtime; wire the
// store's OnChange hook to Registry.InvalidateCaches so decision caches
// never serve permits from before an update.
type StorePDP struct {
	// Store holds the current policy.
	Store *policy.Store

	// name caches the name rendered for one policy snapshot, so a
	// decision does not rebuild it and a Replace that relabels the
	// store renames the PDP at its next use.
	name atomic.Pointer[storeName]
}

// storeName is StorePDP's name as rendered for one policy.
type storeName struct {
	pol  *policy.Policy
	name string
}

var _ NonBlockingPDP = (*StorePDP)(nil)

// Name implements PDP.
func (p *StorePDP) Name() string { return p.nameOf(p.Store.Current()) }

// nameOf returns the name for pol, the store's policy at some instant,
// rendering it only when pol is not the policy last named.
func (p *StorePDP) nameOf(pol *policy.Policy) string {
	if n := p.name.Load(); n != nil && n.pol == pol {
		return n.name
	}
	n := &storeName{pol: pol, name: "policy-store:" + pol.Source}
	p.name.Store(n)
	return n.name
}

// NonBlocking implements NonBlockingPDP (see PolicyPDP; the store read
// is a single atomic pointer load).
func (p *StorePDP) NonBlocking() bool { return true }

// Authorize implements PDP: it evaluates against the policy current at
// call time, using the compiled form the store rebuilt on last update,
// and names itself after that same snapshot. As for PolicyPDP,
// honouring ctx is a pre-check.
func (p *StorePDP) Authorize(ctx context.Context, req *Request) Decision {
	if err := ctx.Err(); err != nil {
		return ErrorDecision(p.Name(), "request abandoned: "+err.Error())
	}
	pol, compiled, _ := p.Store.Snapshot()
	return evaluatePolicy(p.nameOf(pol), compiled, req)
}

// SelfOnlyPDP reproduces the stock GT2 job-management rule: "the Grid
// identity of the user making the request must match the Grid identity of
// the user who initiated the job" (§4.2). Job startup is out of its
// scope and yields a deny, since the Gatekeeper's grid-mapfile decides
// startup in stock GT2.
type SelfOnlyPDP struct{}

var _ NonBlockingPDP = SelfOnlyPDP{}

// Name implements PDP.
func (SelfOnlyPDP) Name() string { return "gt2-self-only" }

// NonBlocking implements NonBlockingPDP: the rule is a field
// comparison.
func (SelfOnlyPDP) NonBlocking() bool { return true }

// Authorize implements PDP.
func (s SelfOnlyPDP) Authorize(_ context.Context, req *Request) Decision {
	if req.Action == policy.ActionStart {
		return DenyDecision(s.Name(), "job startup is authorized by the gatekeeper, not the job manager")
	}
	if req.JobOwner != "" && req.JobOwner == req.Subject {
		return PermitDecision(s.Name(), "requester is the job initiator")
	}
	return DenyDecision(s.Name(), fmt.Sprintf("requester %s is not the job initiator %s", req.Subject, req.JobOwner))
}

// RegisterBuiltinDrivers installs the drivers every deployment has:
//
//   - "plainfile": the plaintext policy engine; params: path=<policy file>
//     or inline=<policy text>, source=<label>.
//   - "gt2-self-only": the legacy GT2 management rule; no params.
//
// Third-party systems (Akenti, CAS) register their own drivers.
func RegisterBuiltinDrivers(r *Registry) {
	r.RegisterDriver("plainfile", func(params map[string]string) (PDP, error) {
		source := params["source"]
		if source == "" {
			source = "local"
		}
		var (
			pol *policy.Policy
			err error
		)
		switch {
		case params["path"] != "":
			f, ferr := os.Open(params["path"])
			if ferr != nil {
				return nil, fmt.Errorf("open policy file: %w", ferr)
			}
			defer f.Close()
			pol, err = policy.Parse(f, source)
		case params["inline"] != "":
			pol, err = policy.ParseString(params["inline"], source)
		default:
			return nil, fmt.Errorf("plainfile driver requires path= or inline=")
		}
		if err != nil {
			return nil, err
		}
		pdp := &PolicyPDP{Policy: pol}
		pdp.Compiled() // compile at load, not on the first request
		return pdp, nil
	})
	r.RegisterDriver("gt2-self-only", func(map[string]string) (PDP, error) {
		return SelfOnlyPDP{}, nil
	})
}
