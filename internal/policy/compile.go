package policy

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"gridauth/internal/gsi"
	"gridauth/internal/rsl"
)

// Compiled is a one-shot compilation of a policy snapshot into an
// attribute-indexed decision structure. Compile does once, per policy
// swap, the work the interpreted evaluator repeats per request:
//
//   - every subject, attribute, action and value string is interned into
//     a symbol table (deduplicating the megabytes of repeated strings a
//     1M-rule policy carries, and giving actions dense integer IDs);
//   - assertion sets are bucketed by (subject, action) and pre-split into
//     requirement sets and grant sets (IsRequirement decided here, not
//     per request);
//   - each subject's bucket already contains the statements of every
//     group prefix above it, merged in policy order, so evaluation never
//     scans the statement list;
//   - subjects are kept in a sorted list searched by longest identity
//     prefix, so identities that match only group statements (proxy
//     names, unknown users) resolve with one binary search;
//   - clauses are flattened into matcher structs with NULL/self/literal
//     discrimination resolved and numeric limits pre-parsed;
//   - per-action "can anything match?" answers are precomputed, so
//     actions no statement mentions short-circuit to default deny.
//
// The hot-path Evaluate is then a couple of map lookups plus flattened
// matcher checks, with zero heap allocations on the permit path: permit
// reasons and GrantedBy labels are precomputed at compile time. A denial
// is rendered by the compiled scan too, in one allocation: each matcher
// knows its clause's position in its assertion set, so the reason names
// every failing set and its first failing clause without re-running the
// interpreter. FuzzCompiledEquivalence holds the text byte for byte to
// Policy.Evaluate's, which stays the definition.
//
// A Compiled is immutable and safe for concurrent use. It is built from
// a policy snapshot; Store rebuilds it inside Update before OnChange
// hooks fire, so a stale compiled form never outlives its policy.
type Compiled struct {
	source string
	pol    *Policy

	// actions maps literal action selector values to dense IDs;
	// actionable[id] reports whether any live set admits that action.
	actions     map[string]int
	actionable  []bool
	anyWildcard bool

	// byExact maps every distinct statement subject to its evaluation
	// plan (own sets plus all group-prefix sets, in policy order).
	byExact map[gsi.DN]*subjectEntry

	// px holds the same subjects sorted with prefix-parent links, and
	// entries[i] is the plan for px.keys[i]. Identities not in byExact
	// are resolved by longest-prefix binary search.
	px      subjectIndex
	entries []*subjectEntry

	stats CompileStats
}

// CompileStats describes one compilation, for capacity planning and the
// policycheck -stats flag.
type CompileStats struct {
	// Statements and Sets count the policy's statements and assertion sets.
	Statements int
	Sets       int
	// GrantSets, RequirementSets and DeadSets partition the sets: dead
	// sets (e.g. an action selector that can never match) are dropped
	// from the compiled form.
	GrantSets       int
	RequirementSets int
	DeadSets        int
	// Subjects counts distinct statement subjects (= exact-lookup
	// buckets); GroupPrefixes counts subjects that are proper prefixes
	// of at least one other subject.
	Subjects      int
	GroupPrefixes int
	// Actions counts distinct literal action selector values;
	// ActionBuckets counts (subject, action) buckets across all plans;
	// WildcardSets counts live sets with no literal action selector.
	Actions       int
	ActionBuckets int
	WildcardSets  int
	// Symbols counts interned strings (subjects, attributes, values).
	Symbols int
	// CompileTime is the wall-clock cost of the compilation.
	CompileTime time.Duration
}

// subjectEntry is the per-subject evaluation plan: the applicable
// statement chain (own statements plus every group prefix above, in
// policy order) both compiled and as raw statements for ApplicableTo.
type subjectEntry struct {
	plan  plan
	stmts []*Statement
}

// plan holds a subject's compiled sets bucketed by action ID, with sets
// lacking a literal action selector (matching any or runtime-determined
// actions) kept aside. Within every list, sets appear in policy order.
type plan struct {
	buckets    []actionBucket
	wildReqs   []*cset
	wildGrants []*cset
}

type actionBucket struct {
	action int
	reqs   []*cset
	grants []*cset
}

// cset is one compiled assertion set.
type cset struct {
	// ord is the set's global declaration order (statement-major), the
	// merge key that keeps chain evaluation in policy order.
	ord   int
	isReq bool
	// wildcard marks a set with no literal action selector; actionIDs
	// lists the admitted actions otherwise. oddAction holds action
	// clauses needing runtime evaluation (self, != , ordering).
	wildcard  bool
	actionIDs []int
	oddAction []matcher
	// matchers holds the non-action clauses in clause order.
	matchers []matcher
	// set is the source assertion set, whose clauses a denial names.
	set *AssertionSet
	// label names the set as "subject#i" in denials and, for grant
	// sets, as GrantedBy; permitReason is precomputed for grant sets so
	// a permit allocates nothing.
	label        string
	permitReason string
}

// Matcher modes, one per shape of clauseSatisfied's behaviour.
const (
	mEq      uint8 = iota // attribute present, every value permitted
	mEqNull               // attribute absent
	mNeq                  // no value forbidden (absent OK)
	mNeqNull              // attribute present, every value non-empty
	mLimit                // every value within every limit (absent OK)
	mNever                // unknown operator: never satisfied
)

// Attribute kinds: where the request's values come from.
const (
	akSpec     uint8 = iota // job description attribute
	akAction                // synthesized from Request.Action
	akJobowner              // synthesized from Request.JobOwner/Subject
)

// matcher is one flattened clause: NULL/self/literal discrimination and
// numeric limit parsing are resolved at compile time.
type matcher struct {
	kind    uint8
	mode    uint8
	hasSelf bool
	// clause is the clause's index in its assertion set.
	clause uint32
	op     rsl.Op
	// attr is the lower-cased attribute name for spec lookup.
	attr string
	// want holds resolved literal values (mEq/mNeq).
	want []string
	// limits holds pre-parsed bounds (mLimit).
	limits []limit
}

// limit is one pre-parsed ordering bound.
type limit struct {
	isSelf bool
	str    string
	num    float64
	isNum  bool
}

// interner deduplicates strings: equal strings across a compiled policy
// share one backing array, which is what keeps a 1M-rule policy's
// compiled form from doubling the repeated subject/value text.
type interner struct {
	canon map[string]string
}

func newInterner() *interner { return &interner{canon: make(map[string]string)} }

// intern returns the canonical copy of s.
func (in *interner) intern(s string) string {
	if c, ok := in.canon[s]; ok {
		return c
	}
	in.canon[s] = s
	return s
}

func (in *interner) size() int { return len(in.canon) }

// Compile builds the attribute-indexed form of p. It never fails: a
// policy that parsed is compilable, and constructs the interpreter
// tolerates (unknown operators, empty value lists) compile to matchers
// with the same behaviour.
func Compile(p *Policy) *Compiled {
	start := time.Now()
	c := &Compiled{
		source:  p.Source,
		pol:     p,
		actions: make(map[string]int),
		byExact: make(map[gsi.DN]*subjectEntry, len(p.Statements)),
	}
	in := newInterner()

	// Pass 1: compile every assertion set, grouping statements and sets
	// by subject in first-appearance order.
	type subjData struct {
		stmtIdx []int
		stmts   []*Statement
		sets    []*cset
	}
	bySubject := make(map[string]*subjData, len(p.Statements))
	var order []string
	seq := 0
	for stmtIdx, st := range p.Statements {
		subj := in.intern(string(st.Subject))
		sd := bySubject[subj]
		if sd == nil {
			sd = &subjData{}
			bySubject[subj] = sd
			order = append(order, subj)
		}
		sd.stmtIdx = append(sd.stmtIdx, stmtIdx)
		sd.stmts = append(sd.stmts, st)
		for i, set := range st.Sets {
			cs, dead := c.compileSet(st, i, set, seq, in)
			seq++
			c.stats.Sets++
			if dead {
				c.stats.DeadSets++
				continue
			}
			if cs.isReq {
				c.stats.RequirementSets++
			} else {
				c.stats.GrantSets++
			}
			if cs.wildcard {
				c.anyWildcard = true
				c.stats.WildcardSets++
			} else {
				for _, id := range cs.actionIDs {
					c.actionable[id] = true
				}
			}
			sd.sets = append(sd.sets, cs)
		}
	}
	c.stats.Statements = len(p.Statements)

	// Pass 2: sort subjects and link each to its longest proper prefix
	// also present as a subject (stack sweep inside buildSubjectIndex).
	c.px = buildSubjectIndex(append(make([]string, 0, len(order)), order...))
	c.stats.GroupPrefixes = c.px.groups

	// Pass 3: build each subject's plan from its own sets plus every
	// ancestor's, merged back into policy order.
	c.entries = make([]*subjectEntry, len(c.px.keys))
	for i, k := range c.px.keys {
		var (
			chainSets  []*cset
			chainIdx   []int
			chainStmts []*Statement
		)
		for _, j := range c.px.chain(int32(i)) {
			sd := bySubject[c.px.keys[j]]
			chainSets = append(chainSets, sd.sets...)
			chainIdx = append(chainIdx, sd.stmtIdx...)
			chainStmts = append(chainStmts, sd.stmts...)
		}
		sort.Slice(chainSets, func(a, b int) bool { return chainSets[a].ord < chainSets[b].ord })
		sort.Sort(&stmtsByIndex{idx: chainIdx, stmts: chainStmts})
		e := &subjectEntry{stmts: chainStmts}
		e.plan = buildPlan(chainSets)
		c.stats.ActionBuckets += len(e.plan.buckets)
		c.entries[i] = e
		c.byExact[gsi.DN(k)] = e
	}

	c.stats.Subjects = len(c.px.keys)
	c.stats.Actions = len(c.actions)
	c.stats.Symbols = in.size()
	c.stats.CompileTime = time.Since(start)
	return c
}

// stmtsByIndex sorts a statement slice by original policy position.
type stmtsByIndex struct {
	idx   []int
	stmts []*Statement
}

func (s *stmtsByIndex) Len() int           { return len(s.idx) }
func (s *stmtsByIndex) Less(a, b int) bool { return s.idx[a] < s.idx[b] }
func (s *stmtsByIndex) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.stmts[a], s.stmts[b] = s.stmts[b], s.stmts[a]
}

// compileSet flattens one assertion set. dead reports that the set's
// action selector can never match any request (it is dropped).
func (c *Compiled) compileSet(st *Statement, idx int, set *AssertionSet, seq int, in *interner) (*cset, bool) {
	cs := &cset{ord: seq, isReq: set.IsRequirement(), set: set}
	var (
		haveLiteral bool
		ids         []int
		dead        bool
	)
	for ci, cl := range set.Clauses {
		if cl.Attribute == AttrAction {
			if cl.Op != rsl.OpEq {
				cs.oddAction = append(cs.oddAction, compileMatcher(cl, ci, in))
				continue
			}
			hasSelf := false
			var lits []string
			for _, v := range cl.Values {
				switch v.Literal {
				case ValueNull:
					// dropped, as in clauseSatisfied
				case ValueSelf:
					hasSelf = true
				default:
					lits = append(lits, in.intern(v.Resolve(nil)))
				}
			}
			if hasSelf {
				// (action = self ...) compares against the requesting
				// identity; decided at request time.
				cs.oddAction = append(cs.oddAction, compileMatcher(cl, ci, in))
				continue
			}
			if len(lits) == 0 {
				// (action = NULL): the action attribute is always
				// present, so this selector never matches.
				dead = true
				continue
			}
			next := make([]int, 0, len(lits))
			for _, lit := range lits {
				next = append(next, c.actionID(lit))
			}
			if !haveLiteral {
				haveLiteral = true
				ids = dedupInts(next)
			} else {
				ids = intersectInts(ids, next)
			}
			continue
		}
		cs.matchers = append(cs.matchers, compileMatcher(cl, ci, in))
	}
	if haveLiteral {
		if len(ids) == 0 {
			// Contradictory literal selectors, e.g.
			// (action=start)(action=cancel).
			dead = true
		}
		cs.actionIDs = ids
	} else {
		cs.wildcard = true
	}
	cs.label = string(st.Subject) + "#" + strconv.Itoa(idx)
	if !cs.isReq {
		cs.permitReason = "granted by " + cs.label
	}
	return cs, dead
}

// actionID interns an action literal, growing the actionable table.
func (c *Compiled) actionID(lit string) int {
	if id, ok := c.actions[lit]; ok {
		return id
	}
	id := len(c.actions)
	c.actions[lit] = id
	c.actionable = append(c.actionable, false)
	return id
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for _, x := range xs {
		seen := false
		for _, o := range out {
			if o == x {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, x)
		}
	}
	return out
}

func intersectInts(a, b []int) []int {
	out := a[:0]
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// compileMatcher flattens clause ci of a set, replicating
// clauseSatisfied's value resolution: NULL becomes a flag, self the
// requesting identity, variables the empty string.
func compileMatcher(cl *rsl.Relation, ci int, in *interner) matcher {
	m := matcher{op: cl.Op, clause: uint32(ci), attr: in.intern(strings.ToLower(cl.Attribute))}
	// The interpreter matches the synthesized attributes by exact name
	// (parsed policies are already lower case; a hand-built "Action"
	// clause reads the job description, and so must we).
	switch cl.Attribute {
	case AttrAction:
		m.kind = akAction
	case AttrJobowner:
		m.kind = akJobowner
	default:
		m.kind = akSpec
	}
	isNull := false
	var want []string
	for _, v := range cl.Values {
		switch v.Literal {
		case ValueNull:
			isNull = true
		case ValueSelf:
			m.hasSelf = true
		default:
			want = append(want, in.intern(v.Resolve(nil)))
		}
	}
	switch cl.Op {
	case rsl.OpEq:
		if isNull && len(want) == 0 && !m.hasSelf {
			m.mode = mEqNull
		} else {
			m.mode = mEq
			m.want = want
		}
	case rsl.OpNeq:
		if isNull && len(want) == 0 && !m.hasSelf {
			m.mode = mNeqNull
		} else {
			m.mode = mNeq
			m.want = want
		}
	case rsl.OpLt, rsl.OpLe, rsl.OpGt, rsl.OpGe:
		m.mode = mLimit
		for _, w := range want {
			l := limit{str: w}
			if n, err := strconv.ParseFloat(strings.TrimSpace(w), 64); err == nil {
				l.num, l.isNum = n, true
			}
			m.limits = append(m.limits, l)
		}
		if m.hasSelf {
			m.limits = append(m.limits, limit{isSelf: true})
		}
	default:
		m.mode = mNever
	}
	return m
}

// Accessors -------------------------------------------------------------

// Source returns the label of the compiled policy's source.
func (c *Compiled) Source() string { return c.source }

// Policy returns the policy snapshot the compiled form was built from.
func (c *Compiled) Policy() *Policy { return c.pol }

// Stats returns the compilation statistics.
func (c *Compiled) Stats() CompileStats { return c.stats }

// ApplicableTo returns the statements whose subject is a prefix of
// identity, in policy order — the same list Policy.ApplicableTo computes
// by linear scan. The returned slice is shared and must not be modified.
func (c *Compiled) ApplicableTo(identity gsi.DN) []*Statement {
	if e := c.byExact[identity]; e != nil {
		return e.stmts
	}
	if j := c.px.longestPrefix(string(identity)); j >= 0 {
		return c.entries[j].stmts
	}
	return nil
}

// Evaluation ------------------------------------------------------------

// Evaluate decides a request against the compiled policy. It returns
// decisions identical to Policy.Evaluate on the source policy, field for
// field. A permit allocates nothing and a denial allocates its reason.
func (c *Compiled) Evaluate(req *Request) Decision {
	// Precomputed per-action answer: if no live set can match the
	// action, no subject can be granted (or constrained) anything.
	if !c.anyWildcard {
		id, ok := c.actions[req.Action]
		if !ok || !c.actionable[id] {
			return c.defaultDeny(req)
		}
	}
	e := c.byExact[req.Subject]
	if e == nil {
		if j := c.px.longestPrefix(string(req.Subject)); j >= 0 {
			e = c.entries[j]
		}
	}
	if e == nil {
		return c.defaultDeny(req)
	}
	pl := &e.plan
	reqs, grants := chain{b: pl.wildReqs}, chain{b: pl.wildGrants}
	if id, ok := c.actions[req.Action]; ok {
		for i := range pl.buckets {
			if pl.buckets[i].action == id {
				reqs.a = pl.buckets[i].reqs
				grants.a = pl.buckets[i].grants
				break
			}
		}
	}

	// Requirements first: the interpreter scans the whole chain, so a
	// violation anywhere denies regardless of grants.
	it := reqs
	for cs := it.next(); cs != nil; cs = it.next() {
		if cs.actionOK(req) && cs.failing(req) >= 0 {
			return c.deny(req, "requirement violated: ", "requirement ", reqs)
		}
	}

	// Grants: the first satisfied one (in policy order) wins.
	sawGrant := false
	it = grants
	for cs := it.next(); cs != nil; cs = it.next() {
		if !cs.actionOK(req) {
			continue
		}
		sawGrant = true
		if cs.failing(req) < 0 {
			return Decision{
				Allowed:    true,
				Applicable: true,
				Source:     c.source,
				GrantedBy:  cs.label,
				Reason:     cs.permitReason,
			}
		}
	}
	if sawGrant {
		return c.deny(req, "no grant satisfied: ", "", grants)
	}
	return c.defaultDeny(req)
}

// chain walks an action bucket's sets (a) and the plan's wildcard sets
// (b) merged back into policy order.
type chain struct{ a, b []*cset }

// next returns the chain's next set, or nil at its end.
func (ch *chain) next() *cset {
	var cs *cset
	switch {
	case len(ch.a) > 0 && (len(ch.b) == 0 || ch.a[0].ord < ch.b[0].ord):
		cs, ch.a = ch.a[0], ch.a[1:]
	case len(ch.b) > 0:
		cs, ch.b = ch.b[0], ch.b[1:]
	}
	return cs
}

// deny renders the denial Policy.Evaluate gives, byte for byte: lead,
// then every set in sets that applies to the request and fails it, in
// policy order, as item + "subject#i: clause (...) not satisfied"
// joined by "; ". One walk sizes the reason and a second writes it, so
// the text costs one allocation however long the chain.
func (c *Compiled) deny(req *Request, lead, item string, sets chain) Decision {
	var sb strings.Builder
	sb.Grow(writeDenial(nil, req, lead, item, sets))
	writeDenial(&sb, req, lead, item, sets)
	return Decision{Applicable: true, Source: c.source, Reason: sb.String()}
}

// writeDenial walks sets for deny and returns the reason's length. With
// a non-nil sb it also writes the reason there.
func writeDenial(sb *strings.Builder, req *Request, lead, item string, sets chain) int {
	var buf [256]byte // one clause's text; a longer one spills to the heap
	n := len(lead)
	if sb != nil {
		sb.WriteString(lead)
	}
	for cs := sets.next(); cs != nil; cs = sets.next() {
		if !cs.actionOK(req) {
			continue
		}
		k := cs.failing(req)
		if k < 0 {
			continue
		}
		sep := "; "
		if n == len(lead) {
			sep = ""
		}
		clause := cs.set.Clauses[cs.matchers[k].clause].AppendUnparse(buf[:0])
		n += len(sep) + len(item) + len(cs.label) + len(": clause ") + len(clause) + len(" not satisfied")
		if sb != nil {
			sb.WriteString(sep)
			sb.WriteString(item)
			sb.WriteString(cs.label)
			sb.WriteString(": clause ")
			sb.Write(clause)
			sb.WriteString(" not satisfied")
		}
	}
	return n
}

// defaultDeny renders the interpreter's default-deny reason, whose fmt
// form is "no policy statement grants %q to %s (default deny)", in one
// allocation.
func (c *Compiled) defaultDeny(req *Request) Decision {
	var buf [256]byte
	b := append(buf[:0], "no policy statement grants "...)
	b = strconv.AppendQuote(b, req.Action)
	b = append(b, " to "...)
	b = append(b, req.Subject...)
	b = append(b, " (default deny)"...)
	return Decision{Source: c.source, Reason: string(b)}
}

// actionOK evaluates the set's runtime action clauses (its literal
// selector, if any, was matched by bucket placement).
func (cs *cset) actionOK(req *Request) bool {
	for i := range cs.oddAction {
		if !cs.oddAction[i].match(req) {
			return false
		}
	}
	return true
}

// failing evaluates the set's non-action clauses and returns the index
// of the first matcher the request fails, or -1 when it satisfies them
// all.
func (cs *cset) failing(req *Request) int {
	for i := range cs.matchers {
		if !cs.matchers[i].match(req) {
			return i
		}
	}
	return -1
}

// match evaluates one flattened clause against the request without
// allocating: action and jobowner are synthesized in place, spec
// attributes read by reference.
func (m *matcher) match(req *Request) bool {
	var (
		one  string
		many []string
		n    int
	)
	switch m.kind {
	case akAction:
		one, n = req.Action, 1
	case akJobowner:
		if req.JobOwner != "" {
			one = string(req.JobOwner)
		} else {
			one = string(req.Subject)
		}
		n = 1
	default:
		if req.Spec != nil {
			many = req.Spec.RefLower(m.attr)
			n = len(many)
		}
	}
	switch m.mode {
	case mEqNull:
		return n == 0
	case mEq:
		if n == 0 {
			return false
		}
		for i := 0; i < n; i++ {
			h := one
			if many != nil {
				h = many[i]
			}
			if !m.wants(h, req) {
				return false
			}
		}
		return true
	case mNeqNull:
		if n == 0 {
			return false
		}
		for i := 0; i < n; i++ {
			h := one
			if many != nil {
				h = many[i]
			}
			if h == "" {
				return false
			}
		}
		return true
	case mNeq:
		for i := 0; i < n; i++ {
			h := one
			if many != nil {
				h = many[i]
			}
			if m.wants(h, req) {
				return false
			}
		}
		return true
	case mLimit:
		for i := 0; i < n; i++ {
			h := one
			if many != nil {
				h = many[i]
			}
			if !m.withinLimits(h, req) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// wants reports whether h is among the clause's resolved values.
func (m *matcher) wants(h string, req *Request) bool {
	if m.hasSelf && h == string(req.Subject) {
		return true
	}
	for _, w := range m.want {
		if w == h {
			return true
		}
	}
	return false
}

// withinLimits checks h against every pre-parsed bound, replicating
// rsl.Compare: numeric when both sides parse as floats, byte-wise string
// comparison of the unparsed values otherwise.
func (m *matcher) withinLimits(h string, req *Request) bool {
	ht := strings.TrimSpace(h)
	var (
		hn  float64
		hOk bool
	)
	if maybeNumeric(ht) {
		if v, ok := fastUint(ht); ok {
			hn, hOk = v, true
		} else if v, err := strconv.ParseFloat(ht, 64); err == nil {
			hn, hOk = v, true
		}
	}
	for i := range m.limits {
		l := &m.limits[i]
		if l.isSelf {
			if !rsl.Compare(h, m.op, string(req.Subject)) {
				return false
			}
			continue
		}
		if hOk && l.isNum {
			if !cmpFloat(hn, m.op, l.num) {
				return false
			}
		} else if !cmpString(h, m.op, l.str) {
			return false
		}
	}
	return true
}

// maybeNumeric is a sound prefilter for strconv.ParseFloat: a false
// result means ParseFloat is guaranteed to fail, letting the hot path
// skip the parse (and its error allocation) for obviously non-numeric
// values like paths and queue names.
// fastUint parses a short unsigned decimal integer without strconv's
// generality; up to 15 digits every value is exactly representable in
// a float64, so the result matches ParseFloat bit for bit. The common
// limit operands (count, maxtime, sizes) all take this path.
func fastUint(s string) (float64, bool) {
	if len(s) == 0 || len(s) > 15 {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return float64(n), true
}

func maybeNumeric(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9':
		return true
	case c == '+' || c == '-' || c == '.':
		return true
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		// inf / nan spellings
		return true
	}
	return false
}

func cmpFloat(a float64, op rsl.Op, b float64) bool {
	switch op {
	case rsl.OpLt:
		return a < b
	case rsl.OpLe:
		return a <= b
	case rsl.OpGt:
		return a > b
	case rsl.OpGe:
		return a >= b
	default:
		return false
	}
}

func cmpString(a string, op rsl.Op, b string) bool {
	switch op {
	case rsl.OpLt:
		return a < b
	case rsl.OpLe:
		return a <= b
	case rsl.OpGt:
		return a > b
	case rsl.OpGe:
		return a >= b
	default:
		return false
	}
}

// buildPlan distributes policy-ordered compiled sets into per-action
// buckets, pre-split by requirement/grant.
func buildPlan(csets []*cset) plan {
	var pl plan
	bucketOf := make(map[int]int)
	for _, cs := range csets {
		if cs.wildcard {
			if cs.isReq {
				pl.wildReqs = append(pl.wildReqs, cs)
			} else {
				pl.wildGrants = append(pl.wildGrants, cs)
			}
			continue
		}
		for _, id := range cs.actionIDs {
			bi, ok := bucketOf[id]
			if !ok {
				bi = len(pl.buckets)
				pl.buckets = append(pl.buckets, actionBucket{action: id})
				bucketOf[id] = bi
			}
			if cs.isReq {
				pl.buckets[bi].reqs = append(pl.buckets[bi].reqs, cs)
			} else {
				pl.buckets[bi].grants = append(pl.buckets[bi].grants, cs)
			}
		}
	}
	sort.Slice(pl.buckets, func(a, b int) bool { return pl.buckets[a].action < pl.buckets[b].action })
	return pl
}
