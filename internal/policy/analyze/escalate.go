package analyze

import (
	"fmt"
	"strings"

	"gridauth/internal/gsi"
	"gridauth/internal/policy"
)

// The escalation pass examines management grants — assertion sets that
// authorize one of Options.ManagementActions (voadmin-style grant/
// revoke writes). The grantee attribute scopes whose rights such a
// write may change. Three direct defects are errors:
//
//   - an unscoped management grant (no grantee equality clause): the
//     subject can grant rights to anyone, including itself;
//   - (grantee = self): the subject extends its own rights by
//     construction;
//   - a grantee inside the subject's own prefix chain: the subject (or
//     a member acting under the group statement) can widen rights it
//     already inherits or exercises.
//
// Beyond the direct cases the pass runs reachability over the grant
// graph (edges subject → grantee): a subject that can reach its own
// prefix chain in two or more hops can collude its way back to wider
// rights, which is reported as a warning with the path.

// mgmtEdge is one grant-graph edge: the statement subject may extend
// the rights of the grantee prefix.
type mgmtEdge struct {
	from gsi.DN
	to   gsi.DN
}

// escalation finds management grants whose grantee scope reaches back
// into the granting subject's own prefix chain.
func (a *analyzer) escalation() {
	var (
		edges   []mgmtEdge
		origins []*setInfo          // management sets, in source order
		direct  = map[gsi.DN]bool{} // subjects already flagged directly
	)
	mk := func(info *setInfo, src *srcInfo, sev Severity, msg string) Finding {
		return Finding{
			Class:    ClassEscalation,
			Severity: sev,
			Source:   src.pol.Source,
			Subject:  info.st.Subject,
			Line:     info.set.Line,
			Label:    info.label(),
			Stmt:     info.si,
			Set:      info.gi,
			Message:  msg,
		}
	}
	for _, src := range a.srcs {
		for _, infos := range src.sets {
			for _, info := range infos {
				verbs := a.managementVerbs(info)
				if len(verbs) == 0 || info.isReq || info.unsat {
					continue
				}
				origins = append(origins, info)
				grantee := info.fold[a.opts.GranteeAttr]
				if grantee == nil || !grantee.hasEq {
					direct[info.st.Subject] = true
					a.add(mk(info, src, SeverityError, fmt.Sprintf(
						"management grant for %s is not scoped by a (%s = ...) clause: the subject can extend any identity's rights, including its own",
						verbList(verbs), a.opts.GranteeAttr)))
					continue
				}
				for _, t := range grantee.eq {
					if t.self {
						direct[info.st.Subject] = true
						a.add(mk(info, src, SeverityError, fmt.Sprintf(
							"management grant for %s names (%s = self): the subject can extend its own rights",
							verbList(verbs), a.opts.GranteeAttr)))
						continue
					}
					to := gsi.DN(t.s)
					if comparableDN(info.st.Subject, to) {
						direct[info.st.Subject] = true
						a.add(mk(info, src, SeverityError, fmt.Sprintf(
							"management grant for %s targets %s, which is inside the subject's own prefix chain: the subject can widen rights it already holds or inherits",
							verbList(verbs), to)))
						continue
					}
					edges = append(edges, mgmtEdge{from: info.st.Subject, to: to})
				}
			}
		}
	}
	a.multiHop(origins, edges, direct)
}

// multiHop reports subjects that, while directly scoped away from
// themselves, can reach their own prefix chain through a chain of
// management grants (A grants B, B grants A's ancestor, ...).
func (a *analyzer) multiHop(origins []*setInfo, edges []mgmtEdge, direct map[gsi.DN]bool) {
	seen := map[gsi.DN]bool{}
	for _, origin := range origins {
		start := origin.st.Subject
		if direct[start] || seen[start] {
			continue
		}
		seen[start] = true
		if path := reachChain(start, edges); len(path) >= 3 {
			a.add(Finding{
				Class:    ClassEscalation,
				Severity: SeverityWarning,
				Source:   origin.src.pol.Source,
				Subject:  start,
				Line:     origin.set.Line,
				Label:    origin.label(),
				Stmt:     origin.si,
				Set:      origin.gi,
				Message: fmt.Sprintf(
					"subject can reach its own prefix chain through the grant graph (%s): colluding grantees can hand its rights back widened",
					strings.Join(path, " -> ")),
			})
		}
	}
}

// reachChain runs breadth-first search from start over the grant graph.
// An edge applies from node u when its granting subject shares a prefix
// cone with u (the grantor may be u, a member of u, or a group u sits
// under). It returns the node path start..X where X re-enters start's
// prefix chain after at least two hops, or nil.
func reachChain(start gsi.DN, edges []mgmtEdge) []string {
	type hop struct {
		node  gsi.DN
		prev  int // index into trail; -1 for start
		depth int
	}
	trail := []hop{{node: start, prev: -1}}
	visited := map[gsi.DN]bool{start: true}
	for i := 0; i < len(trail) && i < 1024; i++ {
		u := trail[i]
		for _, e := range edges {
			if !comparableDN(e.from, u.node) {
				continue
			}
			if u.depth+1 >= 2 && comparableDN(e.to, start) {
				// The cycle check runs before the visited skip: the node
				// that closes the loop is usually the (visited) start.
				path := []string{string(e.to)}
				for p := i; p >= 0; p = trail[p].prev {
					path = append([]string{string(trail[p].node)}, path...)
				}
				return path
			}
			if visited[e.to] {
				continue
			}
			visited[e.to] = true
			trail = append(trail, hop{node: e.to, prev: i, depth: u.depth + 1})
		}
	}
	return nil
}

// managementVerbs returns the management actions the set's literal
// action selector grants, or nil when it grants none (or has no
// literal selector — the pass does not chase wildcard grants).
func (a *analyzer) managementVerbs(info *setInfo) []string {
	c := info.fold[policy.AttrAction]
	if c == nil || !c.hasEq {
		return nil
	}
	var verbs []string
	for _, t := range c.eq {
		if t.self {
			continue
		}
		for _, m := range a.opts.ManagementActions {
			if t.s == m {
				verbs = append(verbs, m)
			}
		}
	}
	return verbs
}

func verbList(verbs []string) string {
	quoted := make([]string, len(verbs))
	for i, v := range verbs {
		quoted[i] = fmt.Sprintf("%q", v)
	}
	return strings.Join(quoted, "/")
}
