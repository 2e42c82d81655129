// Package policy implements the fine-grain authorization policy language
// of Keahey et al. (Middleware 2003): policies expressed in terms of RSL
// over job invocation and management requests.
//
// # Model
//
// A policy is a list of statements. Each statement binds a subject — a
// Grid identity or an identity prefix naming a group ("a group of users
// whose Grid identities start with the string") — to one or more
// assertion sets. An assertion set is a conjunction of RSL relations,
// always selected by an "action" relation (start, cancel, information,
// signal). The language extends RSL with the attributes action, jobowner
// and jobtag and with the values NULL (non-empty / absent marker) and
// self (the requesting identity).
//
// The paper's semantics are default-deny: "unless a specific stipulation
// has been made, an action will not be allowed." This package makes the
// informal semantics precise in the way that reproduces every narrated
// example of the paper's Figure 3:
//
//   - A clause is POSITIVE when it can grant: (attr = v1 v2 ...) with
//     literal values.
//   - A clause is RESTRICTIVE when it can only forbid, limit or demand
//     shape: (attr != NULL) requires the attribute to be present and
//     non-empty; (attr = NULL) forbids the attribute; (attr != v)
//     forbids particular values; ordering clauses (attr < n, attr >= n,
//     ...) cap values when the attribute is present.
//   - An assertion set whose only non-action clauses are restrictive is a
//     REQUIREMENT SET: it grants nothing, and every request matching its
//     action from every matching subject must satisfy it. (Figure 3's
//     first statement — mcs.anl.gov users must supply a jobtag on start —
//     is a requirement set.)
//   - An assertion set with at least one positive clause is a GRANT SET:
//     a request is granted when it satisfies all of the set's clauses.
//     Multiple grant sets are alternatives (Bo Liu's two start rules).
//
// A request is permitted if and only if at least one applicable grant set
// is fully satisfied and every applicable requirement set is satisfied.
//
// Attributes not mentioned by a matching grant set are unconstrained,
// matching the paper's usage (Kate Keahey's TRANSP rule does not mention
// count, so any count is acceptable). Equality clauses require the
// attribute to be present; ordering clauses are limits that apply only
// when the attribute is present.
package policy

import (
	"fmt"
	"strings"

	"gridauth/internal/gsi"
	"gridauth/internal/rsl"
)

// Action names used by GRAM job management, mirroring §5.1 of the paper.
const (
	ActionStart       = "start"
	ActionCancel      = "cancel"
	ActionInformation = "information"
	ActionSignal      = "signal"
)

// Special values defined by the language extension.
const (
	ValueNull = "NULL"
	ValueSelf = "self"
)

// Reserved attribute names introduced by the language extension.
const (
	AttrAction   = "action"
	AttrJobowner = "jobowner"
	AttrJobtag   = "jobtag"
)

// Policy is an ordered list of statements from a single administrative
// source (the resource owner, or a VO).
type Policy struct {
	// Source labels where the policy came from, e.g. "local" or "VO:NFC".
	Source string
	// Statements in file order.
	Statements []*Statement
}

// Statement binds a subject prefix to assertion sets.
type Statement struct {
	// Subject is a Grid identity or identity prefix. A statement applies
	// to every identity that begins with Subject.
	Subject gsi.DN
	// Sets holds the statement's assertion sets.
	Sets []*AssertionSet
	// Line is the 1-based source line of the statement header in the
	// policy file it was parsed from, or 0 for statements built in code.
	Line int
}

// AssertionSet is one conjunction of relations.
type AssertionSet struct {
	// Clauses holds every relation of the set, including the action
	// selector.
	Clauses []*rsl.Relation
	// Line is the 1-based source line the set's text starts on in the
	// policy file it was parsed from, or 0 for sets built in code.
	Line int
}

// Actions returns the action values the set is selected by. An empty
// result means the set applies to every action.
//
//authlint:ignore deadexport TestParseFig3Shape and analyze.GenRequests (internal/policy/analyze/export_test.go, for the analyzer's differential tests) read set actions with it
func (s *AssertionSet) Actions() []string {
	for _, c := range s.Clauses {
		if c.Attribute == AttrAction && c.Op == rsl.OpEq {
			vals := make([]string, 0, len(c.Values))
			for _, v := range c.Values {
				vals = append(vals, v.Literal)
			}
			return vals
		}
	}
	return nil
}

// IsRequirement reports whether the set is a requirement set: it contains
// no positive (granting) clauses besides the action selector.
func (s *AssertionSet) IsRequirement() bool {
	for _, c := range s.Clauses {
		if c.Attribute == AttrAction {
			continue
		}
		if clausePositive(c) {
			return false
		}
	}
	return true
}

func clausePositive(c *rsl.Relation) bool {
	// Only equality with literal values grants. Ordering clauses are
	// LIMITS: "(count<=64)" caps count wherever it applies but never by
	// itself authorizes anything — otherwise a site-wide cap statement
	// like "/O=Grid: &(action=start)(count<=64)" would accidentally
	// grant every small job to everyone, violating default deny. Every
	// grant in the paper's Figure 3 carries at least one equality clause
	// (executable, jobtag, directory), so this reading reproduces all of
	// its narrated decisions.
	if c.Op != rsl.OpEq {
		return false
	}
	return !(len(c.Values) == 1 && c.Values[0].Literal == ValueNull)
}

// Unparse renders the assertion set in policy syntax.
func (s *AssertionSet) Unparse() string {
	var sb strings.Builder
	sb.WriteString("&")
	for _, c := range s.Clauses {
		sb.WriteString(c.Unparse())
	}
	return sb.String()
}

// Unparse renders the statement in policy file syntax.
func (st *Statement) Unparse() string {
	var sb strings.Builder
	sb.WriteString(string(st.Subject))
	sb.WriteString(": ")
	for i, set := range st.Sets {
		if i > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString(set.Unparse())
	}
	return sb.String()
}

// Unparse renders the whole policy in file syntax.
func (p *Policy) Unparse() string {
	var sb strings.Builder
	for _, st := range p.Statements {
		sb.WriteString(st.Unparse())
		sb.WriteString("\n")
	}
	return sb.String()
}

// Statement lookup -----------------------------------------------------

// ApplicableTo returns the statements whose subject is a prefix of
// identity, in policy order.
func (p *Policy) ApplicableTo(identity gsi.DN) []*Statement {
	var out []*Statement
	for _, st := range p.Statements {
		if identity.HasPrefix(st.Subject) {
			out = append(out, st)
		}
	}
	return out
}

// Merge returns a new policy containing the statements of p followed by
// those of others. The merged policy keeps p's source label.
//
//authlint:ignore deadexport BenchmarkP1_StartupAuthzOverhead (bench_test.go) and TestJobForNonConformingViolates merge policies with it
func (p *Policy) Merge(others ...*Policy) *Policy {
	merged := &Policy{Source: p.Source}
	merged.Statements = append(merged.Statements, p.Statements...)
	for _, o := range others {
		merged.Statements = append(merged.Statements, o.Statements...)
	}
	return merged
}

// Request is the authorization question put to a policy: may subject
// perform action on a job?
type Request struct {
	// Subject is the verified Grid identity of the requester.
	Subject gsi.DN
	// Action is one of the Action* constants.
	Action string
	// JobOwner is the Grid identity that initiated the job the request
	// targets. Empty for job startup (the subject is starting its own).
	JobOwner gsi.DN
	// Spec is the job description (for start) or the description of the
	// targeted job (for management actions). May be nil for management
	// actions when the JMI did not retain the description.
	Spec *rsl.Spec
}

// attrValues resolves the request's values for a policy attribute,
// synthesizing the extension attributes.
func (r *Request) attrValues(attr string) []string {
	switch attr {
	case AttrAction:
		return []string{r.Action}
	case AttrJobowner:
		owner := r.JobOwner
		if owner == "" {
			owner = r.Subject
		}
		return []string{string(owner)}
	default:
		if r.Spec == nil {
			return nil
		}
		return r.Spec.Values(attr)
	}
}

// Decision is the outcome of evaluating a request against a policy.
type Decision struct {
	// Allowed reports whether the request is permitted.
	Allowed bool
	// Applicable reports whether the policy had anything to say about
	// GRANTING this subject/action pair: true when a grant set applied
	// (whether or not it was satisfied) or a requirement was violated.
	// When false, the policy abstains — it neither grants nor objects —
	// which matters when several administrative sources combine: a
	// resource-owner policy that only states restrictions abstains from
	// granting and leaves that to the VO, while overall default-deny is
	// restored by the combiner requiring at least one source to grant.
	Applicable bool
	// Source is the label of the deciding policy.
	Source string
	// GrantedBy identifies the statement/set that granted the request,
	// as "subject#set", when Allowed.
	GrantedBy string
	// Reason explains a denial (or names the grant).
	Reason string
}

// Evaluate decides a request against the policy using the semantics
// described in the package documentation.
func (p *Policy) Evaluate(req *Request) Decision {
	return evaluateStatements(p.Source, p.ApplicableTo(req.Subject), req)
}

func evaluateStatements(source string, stmts []*Statement, req *Request) Decision {
	var (
		granted    bool
		grantedBy  string
		violations []string
		denials    []string
		sawGrant   bool
	)
	for _, st := range stmts {
		for i, set := range st.Sets {
			if !set.actionMatches(req) {
				continue
			}
			if set.IsRequirement() {
				if msg := set.satisfy(req); msg != "" {
					violations = append(violations,
						fmt.Sprintf("requirement %s#%d: %s", st.Subject, i, msg))
				}
				continue
			}
			sawGrant = true
			if msg := set.satisfy(req); msg == "" {
				if !granted {
					granted = true
					grantedBy = fmt.Sprintf("%s#%d", st.Subject, i)
				}
			} else {
				denials = append(denials, fmt.Sprintf("%s#%d: %s", st.Subject, i, msg))
			}
		}
	}
	switch {
	case len(violations) > 0:
		return Decision{
			Applicable: true,
			Source:     source,
			Reason:     "requirement violated: " + strings.Join(violations, "; "),
		}
	case granted:
		return Decision{
			Allowed:    true,
			Applicable: true,
			Source:     source,
			GrantedBy:  grantedBy,
			Reason:     "granted by " + grantedBy,
		}
	case sawGrant:
		return Decision{
			Applicable: true,
			Source:     source,
			Reason:     "no grant satisfied: " + strings.Join(denials, "; "),
		}
	default:
		return Decision{
			Source: source,
			Reason: fmt.Sprintf("no policy statement grants %q to %s (default deny)", req.Action, req.Subject),
		}
	}
}

// actionMatches reports whether the set's action selector admits the
// request's action.
func (s *AssertionSet) actionMatches(req *Request) bool {
	for _, c := range s.Clauses {
		if c.Attribute != AttrAction {
			continue
		}
		if !clauseSatisfied(c, req) {
			return false
		}
	}
	return true
}

// Satisfied reports whether the request meets every clause of the set
// (including the action selector). The string explains the first failing
// clause on a false result. Exported for engines that embed assertion
// sets as raw constraints (e.g. Akenti use conditions).
func (s *AssertionSet) Satisfied(req *Request) (bool, string) {
	if !s.actionMatches(req) {
		return false, "action selector does not match"
	}
	if msg := s.satisfy(req); msg != "" {
		return false, msg
	}
	return true, ""
}

// satisfy checks every non-action clause; it returns "" when the set is
// satisfied and a human-readable explanation of the first failure
// otherwise.
func (s *AssertionSet) satisfy(req *Request) string {
	for _, c := range s.Clauses {
		if c.Attribute == AttrAction {
			continue
		}
		if !clauseSatisfied(c, req) {
			return fmt.Sprintf("clause %s not satisfied", c.Unparse())
		}
	}
	return ""
}

// clauseSatisfied evaluates one relation against the request.
func clauseSatisfied(c *rsl.Relation, req *Request) bool {
	have := req.attrValues(c.Attribute)

	// Resolve policy-side values: `self` becomes the requesting identity.
	want := make([]string, 0, len(c.Values))
	isNull := false
	for _, v := range c.Values {
		switch v.Literal {
		case ValueNull:
			isNull = true
		case ValueSelf:
			want = append(want, string(req.Subject))
		default:
			want = append(want, v.Resolve(nil))
		}
	}

	switch c.Op {
	case rsl.OpEq:
		if isNull && len(want) == 0 {
			// (attr = NULL): the request must not contain the attribute.
			return len(have) == 0
		}
		// (attr = v1 v2 ...): attribute must be present and every request
		// value must be among the permitted values.
		if len(have) == 0 {
			return false
		}
		for _, h := range have {
			if !containsString(want, h) {
				return false
			}
		}
		return true
	case rsl.OpNeq:
		if isNull && len(want) == 0 {
			// (attr != NULL): the attribute must be present with every
			// value non-empty. A request that smuggles an empty value
			// alongside non-empty ones does not satisfy the requirement.
			if len(have) == 0 {
				return false
			}
			for _, h := range have {
				if h == "" {
					return false
				}
			}
			return true
		}
		// (attr != v ...): no request value may be among the forbidden
		// values. An absent attribute trivially satisfies.
		for _, h := range have {
			if containsString(want, h) {
				return false
			}
		}
		return true
	case rsl.OpLt, rsl.OpLe, rsl.OpGt, rsl.OpGe:
		// Ordering clauses are limits: they apply when the attribute is
		// present; an absent attribute is unconstrained.
		for _, h := range have {
			for _, w := range want {
				if !rsl.Compare(h, c.Op, w) {
					return false
				}
			}
		}
		return true
	default:
		return false
	}
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
