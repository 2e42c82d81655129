// Package analyze statically checks compiled policy sets for semantic
// defects the evaluator cannot report at decision time: grants that can
// never fire (shadowed or internally contradictory), requirements that
// deny everything they touch, community grants the local policy can
// never honour under the combination rules, management grants that let
// a subject extend its own rights, and actions no statement covers.
//
// Every claim is conservative: the analyzer only reports what it can
// prove under the evaluator's exact semantics, so a clean policy like
// the paper's Figure 3 produces zero findings, and every finding marked
// Deletable can be removed without changing a single decision (the
// tests check this with the Tombstone oracle in export_test.go).
// docs/POLICY-ANALYSIS.md describes the finding classes and the
// pre-publish workflow.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"gridauth/internal/gsi"
	"gridauth/internal/policy"
)

// Severity ranks findings. The zero value means "unset".
type Severity int

const (
	// SeverityInfo marks advisory findings (coverage gaps).
	SeverityInfo Severity = iota + 1
	// SeverityWarning marks defects that waste policy but do not change
	// decisions (shadowed or unreachable grants).
	SeverityWarning
	// SeverityError marks defects that silently deny or escalate
	// (unsatisfiable requirements, cross-source conflicts, escalation).
	SeverityError
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// ParseSeverity maps a severity name to its value.
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "info":
		return SeverityInfo, nil
	case "warning", "warn":
		return SeverityWarning, nil
	case "error":
		return SeverityError, nil
	default:
		return 0, fmt.Errorf("analyze: unknown severity %q (want info, warning or error)", s)
	}
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	v, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Finding classes.
const (
	// ClassShadow: a grant an earlier grant in the same subject chain
	// already decides entirely.
	ClassShadow = "shadow"
	// ClassUnreachable: a set whose conjunction no request can satisfy.
	ClassUnreachable = "unreachable"
	// ClassConflict: a community grant local policy can never honour.
	ClassConflict = "conflict"
	// ClassEscalation: a management grant that lets a subject extend
	// its own (or its prefix chain's) rights.
	ClassEscalation = "escalation"
	// ClassCoverage: a known action no statement mentions.
	ClassCoverage = "coverage"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Class    string   `json:"class"`
	Severity Severity `json:"severity"`
	// Source is the policy source label the finding anchors to ("" for
	// cross-source coverage gaps).
	Source string `json:"source,omitempty"`
	// Subject is the statement subject the finding concerns.
	Subject gsi.DN `json:"subject,omitempty"`
	// Line is the 1-based source line of the assertion set (0 when the
	// policy was built in code or the finding is not set-scoped).
	Line int `json:"line,omitempty"`
	// Label identifies the assertion set as "subject#index", the same
	// form decision reasons use. Empty for coverage findings.
	Label string `json:"label,omitempty"`
	// Stmt and Set locate the assertion set in the source policy
	// (indices into Policy.Statements and Statement.Sets); -1 when the
	// finding is not set-scoped.
	Stmt int `json:"stmt"`
	Set  int `json:"set"`
	// Related names the other set involved: the shadowing grant for
	// shadow findings, the local set for conflict findings.
	Related string `json:"related,omitempty"`
	// Deletable reports that removing the set (Tombstone) provably
	// changes no decision — the differential harness enforces this.
	Deletable bool   `json:"deletable,omitempty"`
	Message   string `json:"message"`
}

// String renders the finding as "source:line: severity: class: message".
func (f Finding) String() string {
	var sb strings.Builder
	if f.Source != "" {
		sb.WriteString(f.Source)
		if f.Line > 0 {
			fmt.Fprintf(&sb, ":%d", f.Line)
		}
		sb.WriteString(": ")
	}
	fmt.Fprintf(&sb, "%s: %s: ", f.Severity, f.Class)
	if f.Label != "" {
		fmt.Fprintf(&sb, "%s: ", f.Label)
	}
	sb.WriteString(f.Message)
	return sb.String()
}

// Report is the result of one analysis run.
type Report struct {
	// Findings, most severe first (ties in source order).
	Findings []Finding `json:"findings"`
	// Sources lists the analyzed policy source labels.
	Sources []string `json:"sources"`
	// Skipped reports that the quadratic passes (shadow, conflict) were
	// skipped because the policy set exceeded Options.MaxSets.
	Skipped bool `json:"skipped,omitempty"`
}

// Count returns how many findings are at or above min.
func (r *Report) Count(min Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity >= min {
			n++
		}
	}
	return n
}

// DefaultManagementActions are the management verbs the escalation pass
// looks for when Options.ManagementActions is empty: the voadmin-style
// rights-administration writes of the paper's community policy.
var DefaultManagementActions = []string{"grant", "revoke"}

// DefaultGranteeAttr is the request attribute naming the identity whose
// rights a management action changes.
const DefaultGranteeAttr = "grantee"

// Options tunes an analysis run. The zero value is a sensible default
// for single-policy lint runs.
type Options struct {
	// Actions is the site's action registry for coverage analysis; an
	// empty list disables the coverage pass.
	Actions []string
	// ManagementActions are the verbs that rewrite rights (escalation
	// pass). Empty selects DefaultManagementActions.
	ManagementActions []string
	// GranteeAttr is the attribute scoping who a management action may
	// target. Empty selects DefaultGranteeAttr.
	GranteeAttr string
	// LocalSources names the resource-owner policy sources for the
	// cross-source conflict pass; every other source is treated as a
	// community (VO/CAS) policy. Empty selects every source whose label
	// contains "local" (case-insensitive).
	LocalSources []string
	// MaxSets caps the total assertion-set count for the quadratic
	// passes (shadow, conflict); beyond it those passes are skipped and
	// Report.Skipped is set. 0 selects 20000.
	MaxSets int
}

func (o Options) withDefaults() Options {
	if len(o.ManagementActions) == 0 {
		o.ManagementActions = DefaultManagementActions
	}
	if o.GranteeAttr == "" {
		o.GranteeAttr = DefaultGranteeAttr
	}
	if o.MaxSets <= 0 {
		o.MaxSets = 20000
	}
	return o
}

// Analyze runs every pass with default options over one or more
// compiled policy sources.
func Analyze(compiled ...*policy.Compiled) *Report {
	return With(Options{}, compiled...)
}

// With runs every pass with explicit options.
func With(opts Options, compiled ...*policy.Compiled) *Report {
	a := &analyzer{opts: opts.withDefaults(), rep: &Report{}}
	total := 0
	for _, c := range compiled {
		if c == nil {
			continue
		}
		si := newSrcInfo(c)
		a.srcs = append(a.srcs, si)
		a.rep.Sources = append(a.rep.Sources, c.Source())
		total += si.setCount
	}
	a.unreachable()
	if total > a.opts.MaxSets {
		a.rep.Skipped = true
	} else {
		a.shadows()
		a.conflicts()
	}
	a.escalation()
	a.coverage()
	a.sortFindings()
	return a.rep
}

// setInfo caches the folded form and unsatisfiability verdict of one
// assertion set.
type setInfo struct {
	src    *srcInfo
	st     *policy.Statement
	si, gi int
	set    *policy.AssertionSet
	fold   map[string]*cons
	order  []string
	unsat  bool // no request can satisfy the set
	isReq  bool
}

func (s *setInfo) label() string {
	return fmt.Sprintf("%s#%d", s.st.Subject, s.gi)
}

// srcInfo is the per-source analysis state.
type srcInfo struct {
	c        *policy.Compiled
	pol      *policy.Policy
	stmtIdx  map[*policy.Statement]int
	sets     [][]*setInfo
	setCount int
}

func newSrcInfo(c *policy.Compiled) *srcInfo {
	pol := c.Policy()
	si := &srcInfo{c: c, pol: pol, stmtIdx: make(map[*policy.Statement]int, len(pol.Statements))}
	for i, st := range pol.Statements {
		si.stmtIdx[st] = i
		infos := make([]*setInfo, len(st.Sets))
		for g, set := range st.Sets {
			m, order := foldClauses(set.Clauses, false)
			infos[g] = &setInfo{src: si, st: st, si: i, gi: g, set: set, fold: m, order: order, isReq: set.IsRequirement()}
			si.setCount++
		}
		si.sets = append(si.sets, infos)
	}
	return si
}

type analyzer struct {
	opts Options
	rep  *Report
	srcs []*srcInfo
}

func (a *analyzer) add(f Finding) { a.rep.Findings = append(a.rep.Findings, f) }

// unreachable flags every set whose conjunction is provably
// unsatisfiable. A dead grant is deletable noise; a dead requirement
// with a live action selector is an error, because it denies every
// request it applies to. (Contradictory requirements are NOT deletable:
// deleting one widens the policy.)
func (a *analyzer) unreachable() {
	for _, src := range a.srcs {
		for _, infos := range src.sets {
			for _, info := range infos {
				_, reason, onAction, bad := unsatisfiable(info.fold, info.order)
				if !bad {
					continue
				}
				info.unsat = true
				f := Finding{
					Class:    ClassUnreachable,
					Severity: SeverityWarning,
					Source:   src.pol.Source,
					Subject:  info.st.Subject,
					Line:     info.set.Line,
					Label:    info.label(),
					Stmt:     info.si,
					Set:      info.gi,
				}
				switch {
				case onAction:
					f.Deletable = true
					f.Message = fmt.Sprintf("the action selector can never match (%s): the set is dead", reason)
				case info.isReq:
					f.Severity = SeverityError
					f.Message = fmt.Sprintf("requirement can never be satisfied (%s): every request it applies to is denied", reason)
				default:
					f.Deletable = true
					f.Message = fmt.Sprintf("grant can never be satisfied (%s): it never permits anything", reason)
				}
				a.add(f)
			}
		}
	}
}

// shadows flags grants an earlier grant in the same subject chain
// already decides: every request the later grant matches is permitted
// by the earlier one, so the later grant never changes a decision.
func (a *analyzer) shadows() {
	for _, src := range a.srcs {
		for j, st := range src.pol.Statements {
			chain := src.c.ApplicableTo(st.Subject)
			for _, info := range src.sets[j] {
				if info.isReq || info.unsat {
					continue
				}
				if by := src.shadowedBy(chain, info, j); by != nil {
					a.add(Finding{
						Class:     ClassShadow,
						Severity:  SeverityWarning,
						Source:    src.pol.Source,
						Subject:   info.st.Subject,
						Line:      info.set.Line,
						Label:     info.label(),
						Stmt:      info.si,
						Set:       info.gi,
						Related:   by.label(),
						Deletable: true,
						Message: fmt.Sprintf("shadowed by earlier grant %s: every request this set matches is already permitted by it",
							by.label()),
					})
				}
			}
		}
	}
}

// shadowedBy finds the first earlier grant in the chain that covers
// info: its action selector admits every action info admits, and its
// constraints are implied by info's.
func (src *srcInfo) shadowedBy(chain []*policy.Statement, info *setInfo, j int) *setInfo {
	for _, st1 := range chain {
		i, ok := src.stmtIdx[st1]
		if !ok {
			continue
		}
		for g1, cand := range src.sets[i] {
			if i > j || (i == j && g1 >= info.gi) {
				continue
			}
			if cand.isReq || cand.unsat {
				continue
			}
			if !actionCovers(cand, info) {
				continue
			}
			if covered(cand, info) {
				return cand
			}
		}
	}
	return nil
}

// actionCovers reports that every request matching sub's action
// selector also matches sup's — needed so deleting sub cannot flip a
// decision from applicable to default deny.
func actionCovers(sup, sub *setInfo) bool {
	c1 := sup.fold[policy.AttrAction]
	if c1 == nil {
		return true
	}
	return implied(c1, map[string]*cons{policy.AttrAction: sub.fold[policy.AttrAction]})
}

// covered reports that every request satisfying sub satisfies sup.
func covered(sup, sub *setInfo) bool {
	for _, attr := range sup.order {
		if !implied(sup.fold[attr], sub.fold) {
			return false
		}
	}
	return true
}

// coverage flags actions from the registry that no statement in any
// source mentions: requests for them fall to default deny, which is
// often intent but worth surfacing.
func (a *analyzer) coverage() {
	if len(a.opts.Actions) == 0 {
		return
	}
	covered := make(map[string]bool)
	wildcard := false
	for _, src := range a.srcs {
		for _, infos := range src.sets {
			for _, info := range infos {
				c := info.fold[policy.AttrAction]
				if c == nil || !c.hasEq {
					// No equality selector: the set applies to any action
					// its negative clauses admit — count it as covering.
					wildcard = true
					continue
				}
				for _, t := range c.eq {
					if t.self {
						wildcard = true
						continue
					}
					covered[t.s] = true
				}
			}
		}
	}
	if wildcard {
		return
	}
	for _, action := range a.opts.Actions {
		if covered[action] {
			continue
		}
		a.add(Finding{
			Class:    ClassCoverage,
			Severity: SeverityInfo,
			Stmt:     -1,
			Set:      -1,
			Message:  fmt.Sprintf("action %q is not mentioned by any policy statement: every request for it falls to default deny", action),
		})
	}
}

// sortFindings orders the report most-severe first, then by source,
// line and class, so output and JSON artifacts are deterministic.
func (a *analyzer) sortFindings() {
	sort.SliceStable(a.rep.Findings, func(i, j int) bool {
		x, y := a.rep.Findings[i], a.rep.Findings[j]
		if x.Severity != y.Severity {
			return x.Severity > y.Severity
		}
		if x.Source != y.Source {
			return x.Source < y.Source
		}
		if x.Line != y.Line {
			return x.Line < y.Line
		}
		if x.Class != y.Class {
			return x.Class < y.Class
		}
		return x.Message < y.Message
	})
}
