package analyze

import (
	"fmt"
	"strconv"
	"strings"

	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// This file is the analyzer's correctness contract, kept with the tests
// because only they run it (the external analyze_test package sees it
// too): every finding marked Deletable claims its assertion set can be
// removed without changing ANY decision. Tombstone performs the
// removal, GenRequests builds a probing request set, and
// DecisionsEquivalent checks the before/after decisions —
// byte-identical for permits, and for denials identical up to the
// deleted set's own reason entries. The golden tests and FuzzAnalyze
// drive all three.

// Tombstone returns a copy of pol with the gi-th assertion set of the
// si-th statement replaced by a set whose action selector is statically
// unsatisfiable — (action = a)(action = b) can never both hold for the
// single action value of a request — so both evaluators skip it
// entirely. Replacing instead of removing keeps every other set's
// "subject#index" label stable, which is what makes decision reasons
// comparable before and after deletion.
func Tombstone(pol *policy.Policy, si, gi int) *policy.Policy {
	out := &policy.Policy{Source: pol.Source, Statements: append([]*policy.Statement(nil), pol.Statements...)}
	st := *out.Statements[si]
	st.Sets = append([]*policy.AssertionSet(nil), st.Sets...)
	st.Sets[gi] = &policy.AssertionSet{
		Clauses: []*rsl.Relation{
			{Attribute: policy.AttrAction, Op: rsl.OpEq, Values: []rsl.Value{rsl.Lit("tombstone-a")}},
			{Attribute: policy.AttrAction, Op: rsl.OpEq, Values: []rsl.Value{rsl.Lit("tombstone-b")}},
		},
		Line: st.Sets[gi].Line,
	}
	out.Statements[si] = &st
	return out
}

// DecisionsEquivalent reports whether after — the decision of the same
// request against a policy with the set labelled label tombstoned — is
// the deletion-equivalent of before. Permits must be byte-identical.
// A denial may lose only "label: ..." entries from its "no grant
// satisfied" enumeration; if every entry went, the decision must fall
// to the exact default deny. Anything else is a semantic change and
// fails.
//
// The entry comparison splits on "; ", so callers (the fuzz target)
// must skip policies whose unparsed text itself contains "; ".
func DecisionsEquivalent(req *policy.Request, before, after policy.Decision, label string) bool {
	if before == after {
		return true
	}
	if before.Allowed || after.Allowed || after.GrantedBy != "" {
		return false
	}
	if before.Source != after.Source {
		return false
	}
	const prefix = "no grant satisfied: "
	if !strings.HasPrefix(before.Reason, prefix) {
		return false
	}
	// What is left must be before's entries, in order, less entries of
	// the deleted label — not necessarily all of them: two statements
	// naming one subject share their labels, and only one set went.
	var rest []string
	if after.Applicable {
		if !strings.HasPrefix(after.Reason, prefix) {
			return false
		}
		rest = strings.Split(after.Reason[len(prefix):], "; ")
	} else if after.Reason != fmt.Sprintf("no policy statement grants %q to %s (default deny)", req.Action, req.Subject) {
		// The deleted set was the only applicable grant, and the policy
		// did not fall to the exact default deny.
		return false
	}
	for _, entry := range strings.Split(before.Reason[len(prefix):], "; ") {
		switch {
		case len(rest) > 0 && rest[0] == entry:
			rest = rest[1:]
		case strings.HasPrefix(entry, label+": "):
		default:
			return false
		}
	}
	return len(rest) == 0
}

// GenRequests builds a deterministic request set probing every
// statement of the given policies: for each assertion set it emits
// satisfying, near-miss (one attribute dropped or corrupted) and
// mismatching variants, from the statement's own subject and a
// synthetic member below it, across the policies' action vocabulary.
func GenRequests(pols ...*policy.Policy) []policy.Request {
	const maxRequests = 4096
	var (
		reqs    []policy.Request
		actions []string
		seen    = map[string]bool{}
	)
	addAction := func(a string) {
		if !seen[a] {
			seen[a] = true
			actions = append(actions, a)
		}
	}
	for _, p := range pols {
		for _, st := range p.Statements {
			for _, s := range st.Sets {
				for _, a := range s.Actions() {
					addAction(a)
				}
			}
		}
	}
	addAction(policy.ActionStart)
	addAction(policy.ActionCancel)
	addAction("zz-unmapped")

	for _, p := range pols {
		for _, st := range p.Statements {
			subjects := []gsi.DN{st.Subject, st.Subject + "/CN=probe"}
			for _, s := range st.Sets {
				acts := s.Actions()
				if len(acts) == 0 {
					acts = actions
				} else {
					acts = append(append([]string(nil), acts...), "zz-unmapped")
				}
				for _, subj := range subjects {
					specs, owners := specVariants(s, subj)
					for _, act := range acts {
						for _, spec := range specs {
							for _, owner := range owners {
								reqs = append(reqs, policy.Request{Subject: subj, Action: act, JobOwner: owner, Spec: spec})
								if len(reqs) >= maxRequests {
									return reqs
								}
							}
						}
					}
				}
			}
		}
	}
	return reqs
}

// specVariants builds the job-description probes for one assertion set:
// nil, a spec satisfying every clause, and per-attribute near-misses.
// It also returns the job-owner values worth probing.
func specVariants(s *policy.AssertionSet, subj gsi.DN) ([]*rsl.Spec, []gsi.DN) {
	sat := rsl.NewSpec()
	owners := []gsi.DN{"", subj, "/O=Example/CN=other"}
	var attrs []string
	for _, cl := range s.Clauses {
		if cl.Attribute == policy.AttrAction {
			continue
		}
		if cl.Attribute == policy.AttrJobowner {
			for _, v := range cl.Values {
				if v.Literal != policy.ValueNull && v.Literal != policy.ValueSelf {
					owners = append(owners, gsi.DN(v.Resolve(nil)))
				}
			}
			continue
		}
		if sat.Has(cl.Attribute) {
			continue
		}
		if v, ok := satisfyingValue(cl, subj); ok {
			sat.Set(cl.Attribute, v)
		}
		attrs = append(attrs, cl.Attribute)
	}
	specs := []*rsl.Spec{nil, sat}
	if len(attrs) > 4 {
		attrs = attrs[:4]
	}
	for _, a := range attrs {
		drop := cloneSpec(sat)
		drop.Delete(a)
		bad := cloneSpec(sat)
		bad.Set(a, "zz-violates")
		specs = append(specs, drop, bad)
	}
	if len(owners) > 4 {
		owners = owners[:4]
	}
	return specs, owners
}

// satisfyingValue picks a value for the clause's attribute that should
// satisfy the clause in isolation; ok=false means "leave the attribute
// out" (e.g. for `= NULL`).
func satisfyingValue(cl *rsl.Relation, subj gsi.DN) (string, bool) {
	var first string
	sawNull := false
	for _, v := range cl.Values {
		switch v.Literal {
		case policy.ValueNull:
			sawNull = true
		case policy.ValueSelf:
			if first == "" {
				first = string(subj)
			}
		default:
			if first == "" {
				first = v.Resolve(nil)
			}
		}
	}
	switch cl.Op {
	case rsl.OpEq:
		if sawNull && first == "" {
			return "", false // (attr = NULL): absent satisfies
		}
		return first, true
	case rsl.OpNeq:
		if sawNull && first == "" {
			return "present", true // (attr != NULL): any non-empty value
		}
		return first + "-free", true // not among the forbidden values
	case rsl.OpLt, rsl.OpLe, rsl.OpGt, rsl.OpGe:
		if n, err := strconv.ParseFloat(strings.TrimSpace(first), 64); err == nil {
			switch cl.Op {
			case rsl.OpLt:
				return strconv.FormatFloat(n-1, 'g', -1, 64), true
			case rsl.OpGt:
				return strconv.FormatFloat(n+1, 'g', -1, 64), true
			default:
				return first, true
			}
		}
		switch cl.Op {
		case rsl.OpLt:
			return "", true // "" byte-compares below any non-empty value
		case rsl.OpGt:
			return first + "~", true
		default:
			return first, true
		}
	default:
		return first, true
	}
}

// Max returns the highest severity present (0 for a clean report).
func (r *Report) Max() Severity {
	var m Severity
	for _, f := range r.Findings {
		if f.Severity > m {
			m = f.Severity
		}
	}
	return m
}

// ByClass returns the findings of one class, in report order.
func (r *Report) ByClass(class string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Class == class {
			out = append(out, f)
		}
	}
	return out
}

// cloneSpec returns a copy of s that can be changed without changing s.
func cloneSpec(s *rsl.Spec) *rsl.Spec {
	c := rsl.NewSpec()
	for _, attr := range s.Attributes() {
		c.Set(attr, s.Values(attr)...)
	}
	return c
}
