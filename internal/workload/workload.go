// Package workload generates the synthetic users, policies, job
// descriptions and request streams that drive the examples, experiments
// and benchmarks. Every generator is seeded and deterministic.
//
// Two families are provided: the National Fusion Collaboratory scenario
// from §2 of the paper (developer and analysis groups, sanctioned
// application services, admin preemption) and parameterized synthetic
// sweeps for the scaling benchmarks (P1-P4 in DESIGN.md).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

//authlint:file-ignore deadexport RequestStream, SyntheticPolicy, P12Requests and SyntheticRSL are fixtures for bench_test.go (P12Requests also for internal/policy/analyze/analyze_test.go)

// NFC scenario constants.
const (
	// OrgPrefix is the DN prefix shared by all NFC members.
	OrgPrefix = "/O=Grid/O=Globus/OU=mcs.anl.gov"
	// ServiceDir is where sanctioned services live.
	ServiceDir = "/sandbox/services"
)

// User is a generated grid user.
type User struct {
	DN   gsi.DN
	Role string // "developer", "analyst" or "admin"
}

// NFCUsers generates nDev developers, nAna analysts and nAdm admins with
// deterministic DNs.
func NFCUsers(nDev, nAna, nAdm int) []User {
	users := make([]User, 0, nDev+nAna+nAdm)
	for i := 0; i < nDev; i++ {
		users = append(users, User{
			DN:   gsi.DN(fmt.Sprintf("%s/CN=Developer %03d", OrgPrefix, i)),
			Role: "developer",
		})
	}
	for i := 0; i < nAna; i++ {
		users = append(users, User{
			DN:   gsi.DN(fmt.Sprintf("%s/CN=Analyst %03d", OrgPrefix, i)),
			Role: "analyst",
		})
	}
	for i := 0; i < nAdm; i++ {
		users = append(users, User{
			DN:   gsi.DN(fmt.Sprintf("%s/CN=Admin %03d", OrgPrefix, i)),
			Role: "admin",
		})
	}
	return users
}

// NFCPolicy renders the scenario policy for the given users: the VO-wide
// jobtag requirement, developer limits, analyst service grants,
// admin management rights over the NFC and ADS jobtag groups, and
// self-management for everyone.
func NFCPolicy(users []User) (*policy.Policy, error) {
	var sb strings.Builder
	sb.WriteString(OrgPrefix + ": &(action = start)(jobtag != NULL)\n")
	for _, u := range users {
		var sets []string
		switch u.Role {
		case "developer":
			sets = append(sets,
				"&(action = start)(executable = gcc gdb make test1 test2)(jobtag = ADS)(count<=2)(maxtime<=30)")
		case "analyst":
			sets = append(sets,
				fmt.Sprintf("&(action = start)(executable = TRANSP EFIT)(directory = %s)(jobtag = NFC)", ServiceDir))
		case "admin":
			sets = append(sets,
				fmt.Sprintf("&(action = start)(executable = TRANSP EFIT)(directory = %s)(jobtag = NFC)", ServiceDir),
				"&(action = cancel information signal)(jobtag = NFC ADS)")
		}
		sets = append(sets, "&(action = cancel information signal)(jobowner = self)")
		fmt.Fprintf(&sb, "%s: %s\n", u.DN, strings.Join(sets, " "))
	}
	return policy.ParseString(sb.String(), "VO:NFC")
}

// NFCLocalPolicy is the resource owner's policy in the scenario: no
// reserved queue, every request must name an executable, and a site-wide
// processor ceiling.
func NFCLocalPolicy() (*policy.Policy, error) {
	const text = `
/O=Grid: &(action = start)(queue != fast)
/O=Grid: &(action = start)(executable != NULL)(count<=64)
/O=Grid: &(action = cancel information signal)(executable != NULL)
`
	return policy.ParseString(text, "local")
}

// JobFor generates a role-appropriate job description. conforming=false
// produces a request that violates the role's policy in a random way.
func JobFor(u User, rng *rand.Rand, conforming bool) *rsl.Spec {
	spec := rsl.NewSpec()
	switch u.Role {
	case "developer":
		exes := []string{"gcc", "gdb", "make", "test1", "test2"}
		spec.Set("executable", exes[rng.Intn(len(exes))])
		spec.Set("jobtag", "ADS")
		spec.Set("count", itoa(1+rng.Intn(2)))
		spec.Set("maxtime", itoa(5+rng.Intn(25)))
	default: // analyst, admin
		exes := []string{"TRANSP", "EFIT"}
		spec.Set("executable", exes[rng.Intn(len(exes))])
		spec.Set("directory", ServiceDir)
		spec.Set("jobtag", "NFC")
		spec.Set("count", itoa(1+rng.Intn(32)))
	}
	if !conforming {
		switch rng.Intn(4) {
		case 0:
			spec.Set("executable", "arbitrary-binary")
		case 1:
			spec.Delete("jobtag")
		case 2:
			spec.Set("count", "999")
		case 3:
			spec.Set("queue", "fast")
		}
	}
	return spec
}

// Request is a generated authorization request with its expected policy
// subject.
type Request struct {
	Subject gsi.DN
	Action  string
	Spec    *rsl.Spec
	Owner   gsi.DN
}

// RequestStream generates n policy requests: a mix of starts (80%) and
// management actions (20%), with conformFraction of the starts
// policy-conforming.
func RequestStream(users []User, n int, seed int64, conformFraction float64) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		u := users[rng.Intn(len(users))]
		if rng.Float64() < 0.8 {
			conforming := rng.Float64() < conformFraction
			out = append(out, Request{
				Subject: u.DN,
				Action:  policy.ActionStart,
				Spec:    JobFor(u, rng, conforming),
			})
			continue
		}
		owner := users[rng.Intn(len(users))]
		actions := []string{policy.ActionCancel, policy.ActionInformation, policy.ActionSignal}
		out = append(out, Request{
			Subject: u.DN,
			Action:  actions[rng.Intn(len(actions))],
			Spec:    JobFor(owner, rng, true),
			Owner:   owner.DN,
		})
	}
	return out
}

// SyntheticPolicy builds a policy with nStatements statements, each
// holding setsPerStatement grant sets of clausesPerSet clauses, spread
// over the given users round-robin. It drives the P2 scaling sweeps.
func SyntheticPolicy(users []User, nStatements, setsPerStatement, clausesPerSet int) (*policy.Policy, error) {
	var sb strings.Builder
	for i := 0; i < nStatements; i++ {
		u := users[i%len(users)]
		var sets []string
		for s := 0; s < setsPerStatement; s++ {
			var clauses []string
			clauses = append(clauses, "(action = start)")
			clauses = append(clauses, fmt.Sprintf("(executable = exe%d-%d)", i, s))
			for c := 2; c < clausesPerSet; c++ {
				clauses = append(clauses, fmt.Sprintf("(attr%d = v%d)", c, c))
			}
			sets = append(sets, "&"+strings.Join(clauses, ""))
		}
		fmt.Fprintf(&sb, "%s: %s\n", u.DN, strings.Join(sets, " "))
	}
	return policy.ParseString(sb.String(), "synthetic")
}

// --- P12: compiled-engine scaling shapes (docs/PERFORMANCE.md) ---
//
// The P12 sweep drives policy.Compile at 1k-1M rules. At those sizes
// rendering and re-parsing policy text would dominate benchmark setup,
// so these generators build the statement structs directly; the result
// is exactly what policy.Parse would produce for the equivalent text.
//
// Every grant accepts the shared executable "app" alongside a
// per-statement distinct one, so one P12Spec/P12Request permits under
// any statement while the policy still carries n distinct interned
// symbols — the worst case for compile-time interning, the common case
// ("small spec, huge policy") for evaluation.

// P12OrgPrefix is the identity prefix shared by all P12 subjects; a
// wildcard requirement (queue != fast) is attached to it in every shape
// so each decision also exercises the requirement-merge path.
const P12OrgPrefix = "/O=Grid/OU=P12"

func p12Rel(attr string, op rsl.Op, vals ...string) *rsl.Relation {
	r := &rsl.Relation{Attribute: attr, Op: op}
	for _, v := range vals {
		r.Values = append(r.Values, rsl.Lit(v))
	}
	return r
}

func p12Grant(exe string) *policy.AssertionSet {
	return &policy.AssertionSet{Clauses: []*rsl.Relation{
		p12Rel(policy.AttrAction, rsl.OpEq, policy.ActionStart),
		p12Rel("executable", rsl.OpEq, "app", exe),
		p12Rel("count", rsl.OpLe, "8"),
	}}
}

func p12SiteCap() *policy.Statement {
	return &policy.Statement{
		Subject: gsi.DN(P12OrgPrefix),
		Sets: []*policy.AssertionSet{{Clauses: []*rsl.Relation{
			p12Rel("queue", rsl.OpNeq, "fast"),
		}}},
	}
}

// P12User is the exact subject of per-user statement i.
func P12User(i int) gsi.DN {
	return gsi.DN(fmt.Sprintf("%s/CN=User %08d", P12OrgPrefix, i))
}

// ExactHeavyPolicy builds n statements: one group-wide requirement plus
// n-1 per-user grants, each under a distinct exact subject. Decisions
// for the users resolve through the exact-subject bucket.
func ExactHeavyPolicy(n int) *policy.Policy {
	stmts := make([]*policy.Statement, 0, n)
	stmts = append(stmts, p12SiteCap())
	for i := 1; i < n; i++ {
		stmts = append(stmts, &policy.Statement{
			Subject: P12User(i),
			Sets:    []*policy.AssertionSet{p12Grant(fmt.Sprintf("exe%07d", i))},
		})
	}
	return &policy.Policy{Source: "P12:exact", Statements: stmts}
}

// p12Site is the subject of prefix-heavy statement i: every eighth
// statement is a site, the rest are teams nested under the most recent
// site, so prefix resolution walks a real parent chain.
func p12Site(i int) gsi.DN {
	site := gsi.DN(fmt.Sprintf("%s/OU=Site %07d", P12OrgPrefix, i/8))
	if i%8 == 0 {
		return site
	}
	return site + gsi.DN(fmt.Sprintf("/OU=Team %d", i%8))
}

// PrefixHeavyPolicy builds n statements whose subjects are all group
// prefixes (sites and teams); no request identity ever equals a subject
// exactly, so every decision takes the sorted-prefix search path.
func PrefixHeavyPolicy(n int) *policy.Policy {
	stmts := make([]*policy.Statement, 0, n)
	stmts = append(stmts, p12SiteCap())
	for i := 1; i < n; i++ {
		stmts = append(stmts, &policy.Statement{
			Subject: p12Site(i),
			Sets:    []*policy.AssertionSet{p12Grant(fmt.Sprintf("svc%07d", i))},
		})
	}
	return &policy.Policy{Source: "P12:prefix", Statements: stmts}
}

// RequirementHeavyPolicy builds n per-user statements each carrying two
// requirement sets (one wildcard, one action-scoped) ahead of its
// grant, so every decision merges requirements before any grant can
// fire.
func RequirementHeavyPolicy(n int) *policy.Policy {
	stmts := make([]*policy.Statement, 0, n)
	stmts = append(stmts, p12SiteCap())
	for i := 1; i < n; i++ {
		stmts = append(stmts, &policy.Statement{
			Subject: P12User(i),
			Sets: []*policy.AssertionSet{
				{Clauses: []*rsl.Relation{
					p12Rel("maxtime", rsl.OpLe, "60"),
				}},
				{Clauses: []*rsl.Relation{
					p12Rel(policy.AttrAction, rsl.OpEq, policy.ActionStart),
					p12Rel("jobtag", rsl.OpNeq, policy.ValueNull),
				}},
				p12Grant(fmt.Sprintf("rexe%07d", i)),
			},
		})
	}
	return &policy.Policy{Source: "P12:req", Statements: stmts}
}

// P12Subject maps a synthetic identity index onto a request subject for
// a P12-shape policy of n statements (including the site cap). For the
// "exact" and "req" shapes the subject IS per-user statement
// 1+(i mod n-1), so distinct indices fold onto the policy's user set;
// for the "prefix" shape the subject is a member DN extended under
// group statement 1+(i mod n-1), so every index yields a DISTINCT
// identity and resolution must run the prefix search — this is what
// lets a load run drive a million distinct subjects through a
// ten-thousand-rule policy. The load harness (internal/loadgen) issues
// credentials for these DNs.
func P12Subject(shape string, i, n int) gsi.DN {
	k := 1 + i%(n-1)
	if shape == "prefix" {
		return p12Site(k) + gsi.DN(fmt.Sprintf("/CN=User %d", i))
	}
	return P12User(k)
}

// P12Spec is the shared job description every P12 request carries: it
// satisfies the grants ("app", count cap), the jobtag-required and
// maxtime requirements, and stays clear of the queue restriction.
func P12Spec() *rsl.Spec {
	return rsl.NewSpec().
		Set("executable", "app").
		Set("jobtag", "P12").
		Set("count", "2").
		Set("maxtime", "30")
}

// P12Requests returns m permit-path start requests spread uniformly
// over the n-1 per-user (or per-group) subjects of a P12 policy with n
// statements. All requests share one spec: evaluation never mutates it.
func P12Requests(pol *policy.Policy, m int) []policy.Request {
	spec := P12Spec()
	n := len(pol.Statements)
	reqs := make([]policy.Request, m)
	for i := range reqs {
		// Uniform spread over statements 1..n-1 (0 is the site cap).
		st := pol.Statements[1+i*(n-1)/m]
		subject := st.Subject
		if pol.Source == "P12:prefix" {
			// Group subjects: extend with a member CN so resolution
			// must run the prefix search, never the exact bucket.
			subject += gsi.DN(fmt.Sprintf("/CN=User %d", i))
		}
		reqs[i] = policy.Request{
			Subject: subject,
			Action:  policy.ActionStart,
			Spec:    spec,
		}
	}
	return reqs
}

// SyntheticRSL builds a job description with nAttrs attributes, for the
// P3 parse-throughput sweep.
func SyntheticRSL(nAttrs int) string {
	var sb strings.Builder
	sb.WriteString("&(executable=/bin/app)")
	for i := 1; i < nAttrs; i++ {
		fmt.Fprintf(&sb, "(attr%03d=value-%d)", i, i)
	}
	return sb.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
