package gridauth

// End-to-end conformance suite for the paper's usage scenarios (§2, §5.1,
// §6): each case replays one of the policy situations the paper
// describes over a real in-process gatekeeper and GSI client, and then
// — this is the point of the suite — asserts not only the wire-visible
// result but the full observability record of the decision: the audit
// record (with its request ID), the retained decision trace, and the
// per-PDP spans inside it. The scenarios covered:
//
//  1. VO grants and the resource owner does not object       -> permit
//  2. VO grants but the resource owner's policy objects      -> deny
//  3. resource owner silent, VO grant unsatisfied            -> deny
//  4. jobtag group management by a non-initiator (§5.1)      -> permit
//  5. "jobowner = self" management of one's own job          -> permit
//  6. the same rule withholding someone else's job           -> deny
//  7. "jobtag != NULL" requirement on an absent attribute    -> deny
//  8. an action no statement asserts (default deny, §5.2)    -> deny
//  9. limited proxy refused before any callout (GT2 rule)    -> refusal
//
// Every decision case checks: one new audit record, carrying a
// RequestID; a trace retrievable under that ID; one span per PDP the
// combiner actually consulted, with the per-source effects the policy
// semantics dictate.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/faultinject"
	"gridauth/internal/gram"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
)

// The conformance fabric: one organization, three members with the
// paper's §2 roles (a code developer, an analyst running the service
// codes, and a group administrator managing the community's jobs).
const (
	confOrg = "/O=Grid/O=NFC"
	confDev = confOrg + "/CN=Dana Developer"
	confAna = confOrg + "/CN=Alan Analyst"
	confAdm = confOrg + "/CN=Ada Admin"

	voPDP    = "policy:VO"
	localPDP = "policy:local"
)

// confVOPolicy is the community policy: an organization-wide
// requirement that every job startup is tagged, per-member grant sets
// for startup, and management rights expressed two ways — through job
// ownership ("jobowner = self") and through tag-based group management
// ("jobtag = ..." held by the administrator). The developer
// deliberately holds no "signal" grant, so scenario 8 can show default
// deny on an unasserted action.
const confVOPolicy = confOrg + `: &(action = start)(jobtag != NULL)
` + confDev + `: &(action = start)(executable = sim)(jobtag = DEV)(count<=4) &(action = cancel information)(jobowner = self)
` + confAna + `: &(action = start)(executable = TRANSP)(jobtag = NFC) &(action = cancel information signal)(jobowner = self)
` + confAdm + `: &(action = start)(executable = TRANSP)(jobtag = NFC) &(action = cancel information signal)(jobtag = NFC DEV)
`

// confLocalPolicy is the resource owner's policy: requirement sets only
// (the owner restricts, the VO grants — the paper's division of
// labour), so its PDP abstains unless a restriction is violated.
const confLocalPolicy = `/O=Grid: &(action = start)(queue != fast)(count<=64)
/O=Grid: &(action = cancel information signal)(executable != NULL)
`

type confEnv struct {
	fab     *Fabric
	res     *Resource
	log     *audit.Log
	metrics *obs.Metrics
	traces  *obs.TraceStore
	// segment returns the raw JSONL the log's sink committed to segment
	// i, or nil past the last one.
	segment func(i int) []byte
	dev     *gsi.Credential
	ana     *gsi.Credential
	adm     *gsi.Credential
	// The proxies the scenarios authenticate with, delegated once so a
	// second replay presents the same certificates: one per member, and
	// the developer's limited proxy of scenario 9.
	proxies [3]*gsi.Credential
	limited *gsi.Credential
	// via, when set, is the address the scenarios' clients dial instead
	// of the resource's own: a relay in front of it.
	via string
}

// addr is where the scenarios' clients connect.
func (e *confEnv) addr() string {
	if e.via != "" {
		return e.via
	}
	return e.res.Addr
}

// confGridMap maps each member to one local account.
var confGridMap = map[gsi.DN][]string{
	gsi.DN(confDev): {"dev1"},
	gsi.DN(confAna): {"ana1"},
	gsi.DN(confAdm): {"adm1"},
}

// newConfFabric creates the fabric, its three members and the proxies
// the scenarios authenticate with; the caller adds the resource.
func newConfFabric(t *testing.T) *confEnv {
	t.Helper()
	fab, err := NewFabric("/O=Grid/CN=Conformance CA")
	if err != nil {
		t.Fatal(err)
	}
	e := &confEnv{fab: fab}
	for dn, credp := range map[string]**gsi.Credential{
		confDev: &e.dev, confAna: &e.ana, confAdm: &e.adm,
	} {
		c, err := fab.IssueUser(dn)
		if err != nil {
			t.Fatal(err)
		}
		*credp = c
	}
	for i, member := range []*gsi.Credential{e.dev, e.ana, e.adm} {
		if e.proxies[i], err = gsi.Delegate(member, 12*time.Hour, false); err != nil {
			t.Fatal(err)
		}
	}
	if e.limited, err = gsi.Delegate(e.dev, time.Hour, true); err != nil {
		t.Fatal(err)
	}
	return e
}

func newConfEnv(t *testing.T) *confEnv {
	t.Helper()
	e := newConfFabric(t)
	e.metrics, e.traces = obs.NewMetrics(), obs.NewTraceStore(256)
	// Each test records into its own tamper-evident log: in memory, or —
	// with CONFORMANCE_AUDIT_DIR set (the CI verify-audit job) — in a
	// directory cmd/auditverify then proves after the suite. Small
	// batch/segment sizes force group commits and rotations even at test
	// volumes. The Close cleanup is registered before StartResource's, so
	// the resource stops appending before the log seals.
	var sink audit.Sink
	if root := os.Getenv("CONFORMANCE_AUDIT_DIR"); root != "" {
		dir := filepath.Join(root, t.Name())
		ds, err := audit.NewDirSink(dir)
		if err != nil {
			t.Fatal(err)
		}
		sink, e.segment = ds, dirSegment(dir)
	} else {
		ms := audit.NewMemSink()
		sink, e.segment = ms, ms.Segment
	}
	log, err := audit.NewPipeline(audit.Config{
		Capacity:       256,
		Sink:           sink,
		Batch:          4,
		FlushInterval:  time.Millisecond,
		SegmentRecords: 16,
		Metrics:        e.metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.log = log
	t.Cleanup(func() {
		if err := log.Close(); err != nil {
			t.Errorf("audit close: %v", err)
		}
	})
	e.res, err = e.fab.StartResource(ResourceConfig{
		Name: "conformance.anl.gov", Mode: ModeCallout,
		GridMap:        confGridMap,
		VOPolicy:       confVOPolicy,
		LocalPolicy:    confLocalPolicy,
		AuditLog:       e.log,
		Metrics:        e.metrics,
		DecisionTraces: e.traces,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.res.Close)
	return e
}

// spanEffects indexes a trace's spans as PDP name -> effect, failing on
// duplicates (each PDP is consulted at most once per decision).
func spanEffects(t *testing.T, spans []obs.Span) map[string]string {
	t.Helper()
	out := make(map[string]string, len(spans))
	for _, sp := range spans {
		if _, dup := out[sp.PDP]; dup {
			t.Fatalf("trace has two spans for PDP %s", sp.PDP)
		}
		out[sp.PDP] = sp.Effect
	}
	return out
}

// lastDecision asserts that exactly one audit record was appended past
// `before`, that it carries a request ID with a retrievable trace, and
// returns both.
func (e *confEnv) lastDecision(t *testing.T, before int) (audit.Record, obs.TraceRecord) {
	t.Helper()
	recs := e.log.Records()
	if len(recs) != before+1 {
		t.Fatalf("audit records = %d, want %d", len(recs), before+1)
	}
	rec := recs[len(recs)-1]
	if rec.RequestID == "" {
		t.Fatal("audit record carries no request ID")
	}
	tr, ok := e.traces.Get(rec.RequestID)
	if !ok {
		t.Fatalf("no decision trace retained for request %s", rec.RequestID)
	}
	if len(tr.Spans) != len(rec.Spans) {
		t.Fatalf("trace has %d spans but the audit record carries %d", len(tr.Spans), len(rec.Spans))
	}
	return rec, tr
}

// confSummary is the observable outcome of one full scenario replay:
// the ordered audit-record digests, the wire code of every scenario
// call, and the decision counters. The resumed-session variant and a
// replay against a warm signature memo must reproduce it exactly —
// both are transport optimizations and may not change a single
// authorization outcome.
type confSummary struct {
	records []string
	codes   []string
	permits uint64
	denies  uint64
}

// wireCode is what the client saw: "ok", the protocol error code, or
// the text of any other error.
func wireCode(err error) string {
	var pe *gram.ProtoError
	switch {
	case err == nil:
		return "ok"
	case asProtoError(err, &pe):
		return pe.Code.String()
	}
	return err.Error()
}

// diffSummaries reports every way two replays differ.
func diffSummaries(t *testing.T, aName string, a confSummary, bName string, b confSummary) {
	t.Helper()
	if a.permits != b.permits || a.denies != b.denies {
		t.Errorf("decision counts diverge: %s %d/%d vs %s %d/%d",
			aName, a.permits, a.denies, bName, b.permits, b.denies)
	}
	if strings.Join(a.codes, ",") != strings.Join(b.codes, ",") {
		t.Errorf("wire codes diverge:\n  %s: %v\n  %s: %v", aName, a.codes, bName, b.codes)
	}
	if len(a.records) != len(b.records) {
		t.Fatalf("audit volume diverges: %s %d records vs %s %d",
			aName, len(a.records), bName, len(b.records))
	}
	for i := range a.records {
		if a.records[i] != b.records[i] {
			t.Errorf("audit record %d diverges:\n  %s: %s\n  %s: %s",
				i, aName, a.records[i], bName, b.records[i])
		}
	}
}

// digestRecord normalizes an audit record to its decision-relevant
// fields. RequestIDs and timing are fresh per run; everything policy
// semantics determine is in the digest.
func digestRecord(rec audit.Record) string {
	return strings.Join([]string{
		rec.Effect, rec.Action, string(rec.Subject), string(rec.JobOwner), rec.PDP, rec.Source,
	}, "|")
}

// dirSegment reads segment i of the log in dir, as a DirSink wrote it.
func dirSegment(dir string) func(int) []byte {
	return func(i int) []byte {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("segment-%06d.jsonl", i)))
		if err != nil {
			return nil
		}
		return data
	}
}

// committed reads back, oldest first, every record the log's sink
// holds: the trail cmd/auditverify proves.
func (e *confEnv) committed(t *testing.T) []audit.Record {
	t.Helper()
	e.log.Flush()
	var out []audit.Record
	for i := 0; ; i++ {
		seg := e.segment(i)
		if seg == nil {
			return out
		}
		recs, err := audit.ReadJSONL(bytes.NewReader(seg))
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		out = append(out, recs...)
	}
}

// checkTrail requires the records the query ring returned to be the
// records the sink committed, line for line: the trail the scenarios
// judge is the trail the verifier proves.
func checkTrail(t *testing.T, ring, trail []audit.Record) {
	t.Helper()
	if len(ring) != len(trail) {
		t.Fatalf("query ring holds %d records, the sink committed %d", len(ring), len(trail))
	}
	for i := range ring {
		got, want := digestRecord(trail[i]), digestRecord(ring[i])
		if got != want || trail[i].Seq != ring[i].Seq || trail[i].RequestID != ring[i].RequestID {
			t.Errorf("committed record %d = seq %d %s %s, ring has seq %d %s %s",
				i, trail[i].Seq, trail[i].RequestID, got, ring[i].Seq, ring[i].RequestID, want)
		}
	}
}

// primeResumed establishes the client's GSI session with a request that
// produces no authorization decision (a management call on a contact no
// job owns fails at the job table, before any callout), drops the
// connection, and repeats it so the lazy reconnect redeems the session
// ticket. After it returns, all of the client's scenario traffic rides
// a resumed session.
func primeResumed(t *testing.T, c *gram.Client) {
	t.Helper()
	const bogus = "gram://prime/no-such-job"
	var pe *gram.ProtoError
	if _, err := c.Status(bogus); !asProtoError(err, &pe) || pe.Code != gram.CodeNoSuchJob {
		t.Fatalf("priming status = %v, want no-such-job", err)
	}
	c.Close()
	if _, err := c.Status(bogus); !asProtoError(err, &pe) || pe.Code != gram.CodeNoSuchJob {
		t.Fatalf("post-resume status = %v, want no-such-job", err)
	}
	if !c.Resumed() {
		t.Fatal("client reconnected with a full handshake, not a resumed session")
	}
}

// runConformanceScenarios replays the nine paper scenarios and returns
// the run's summary. With resumed set, every client is primed to carry
// its traffic over a resumed GSI session (ticket redemption instead of
// a fresh chain verification) first.
func runConformanceScenarios(t *testing.T, resumed bool) confSummary {
	return replayConformance(t, newConfEnv(t), resumed)
}

// replayConformance runs the scenarios against e, which may have served
// a replay before: every count it checks or returns is the movement
// during this replay.
func replayConformance(t *testing.T, e *confEnv, resumed bool) confSummary {
	m := e.metrics
	firstRecord, firstCommitted := e.log.Len(), len(e.committed(t))
	permits0, denies0, decided0 := m.DecisionsPermit.Load(), m.DecisionsDeny.Load(), m.DecisionSeconds.Count()
	failed0, full0, resumed0 := m.HandshakesFailed.Load(), m.HandshakesFull.Load(), m.HandshakesResumed.Load()
	var sum confSummary
	wire := func(err error) error {
		sum.codes = append(sum.codes, wireCode(err))
		return err
	}

	var clients [3]*gram.Client
	for i, proxy := range e.proxies {
		clients[i] = gram.NewClient(e.addr(), proxy, e.fab.Trust)
		t.Cleanup(clients[i].Close)
	}
	dev, ana, adm := clients[0], clients[1], clients[2]
	if resumed {
		for _, c := range []*gram.Client{dev, ana, adm} {
			primeResumed(t, c)
		}
	}

	// Jobs created along the way, shared by the management scenarios.
	var devJob, anaJob string

	t.Run("1 VO grants and owner does not object", func(t *testing.T) {
		before := e.log.Len()
		contact, err := dev.Submit(`&(executable=sim)(count=2)(jobtag=DEV)(simduration=600)`, "")
		if wire(err) != nil {
			t.Fatalf("conforming submit: %v", err)
		}
		devJob = contact
		rec, tr := e.lastDecision(t, before)
		if rec.Effect != "permit" || rec.Action != policy.ActionStart || rec.Subject != confDev {
			t.Errorf("record = %+v", rec)
		}
		if tr.Effect != "permit" || tr.Action != policy.ActionStart {
			t.Errorf("trace summary = %+v", tr)
		}
		// The VO grants; the restriction-only local policy abstains. Both
		// sources were consulted, so the trace holds one span each.
		eff := spanEffects(t, tr.Spans)
		if eff[voPDP] != "permit" || eff[localPDP] != "not-applicable" || len(eff) != 2 {
			t.Errorf("span effects = %v", eff)
		}
	})

	t.Run("2 VO grants but the owner objects", func(t *testing.T) {
		before := e.log.Len()
		_, err := dev.Submit(`&(executable=sim)(count=2)(jobtag=DEV)(queue=fast)`, "")
		if !gram.IsAuthorizationDenied(wire(err)) {
			t.Fatalf("reserved queue not denied: %v", err)
		}
		rec, tr := e.lastDecision(t, before)
		if rec.Effect != "deny" {
			t.Errorf("record effect = %s", rec.Effect)
		}
		// The VO permitted, then the owner's "queue != fast" vetoed: both
		// spans present, the denial attributed to the local source.
		eff := spanEffects(t, tr.Spans)
		if eff[voPDP] != "permit" || eff[localPDP] != "deny" || len(eff) != 2 {
			t.Errorf("span effects = %v", eff)
		}
		if !strings.Contains(rec.Source, "local") {
			t.Errorf("denial source = %s, want the local policy", rec.Source)
		}
	})

	t.Run("3 VO grant unsatisfied", func(t *testing.T) {
		before := e.log.Len()
		_, err := dev.Submit(`&(executable=rogue-binary)(count=2)(jobtag=DEV)`, "")
		if !gram.IsAuthorizationDenied(wire(err)) {
			t.Fatalf("unlisted executable not denied: %v", err)
		}
		_, tr := e.lastDecision(t, before)
		// The VO's start grant applied and was violated, so the combiner
		// stopped there: exactly one span, the VO denial. The local PDP
		// was never consulted.
		eff := spanEffects(t, tr.Spans)
		if eff[voPDP] != "deny" || len(eff) != 1 {
			t.Errorf("span effects = %v", eff)
		}
	})

	t.Run("4 group management by a non-initiator", func(t *testing.T) {
		before := e.log.Len()
		// The administrator never started devJob, but holds the
		// "jobtag = NFC DEV" management grant — the paper's §5.1 group
		// management use case, impossible under initiator-only GT2.
		if err := wire(adm.Cancel(devJob)); err != nil {
			t.Fatalf("group-manager cancel: %v", err)
		}
		rec, tr := e.lastDecision(t, before)
		if rec.Effect != "permit" || rec.Action != policy.ActionCancel {
			t.Errorf("record = %+v", rec)
		}
		if rec.Subject != confAdm || rec.JobOwner != gsi.DN(confDev) {
			t.Errorf("management record subject/owner = %s/%s", rec.Subject, rec.JobOwner)
		}
		eff := spanEffects(t, tr.Spans)
		if eff[voPDP] != "permit" || eff[localPDP] != "not-applicable" || len(eff) != 2 {
			t.Errorf("span effects = %v", eff)
		}
	})

	t.Run("5 jobowner=self grants own job", func(t *testing.T) {
		contact, err := ana.Submit(`&(executable=TRANSP)(jobtag=NFC)(simduration=600)`, "")
		if wire(err) != nil {
			t.Fatalf("analyst submit: %v", err)
		}
		anaJob = contact
		before := e.log.Len()
		if err := wire(ana.Cancel(anaJob)); err != nil {
			t.Fatalf("self cancel: %v", err)
		}
		rec, tr := e.lastDecision(t, before)
		if rec.Effect != "permit" || rec.Action != policy.ActionCancel || rec.Subject != confAna {
			t.Errorf("record = %+v", rec)
		}
		if eff := spanEffects(t, tr.Spans); eff[voPDP] != "permit" {
			t.Errorf("span effects = %v", eff)
		}
	})

	t.Run("6 jobowner=self withholds another's job", func(t *testing.T) {
		contact, err := dev.Submit(`&(executable=sim)(count=1)(jobtag=DEV)(simduration=600)`, "")
		if wire(err) != nil {
			t.Fatalf("developer resubmit: %v", err)
		}
		devJob = contact
		before := e.log.Len()
		if err := wire(ana.Cancel(devJob)); !gram.IsAuthorizationDenied(err) {
			t.Fatalf("analyst canceled a developer job: %v", err)
		}
		rec, tr := e.lastDecision(t, before)
		if rec.Effect != "deny" || rec.Subject != confAna {
			t.Errorf("record = %+v", rec)
		}
		// "jobowner = self" resolved to the analyst, did not match the
		// developer-owned job, and the applicable grant denied.
		if eff := spanEffects(t, tr.Spans); eff[voPDP] != "deny" {
			t.Errorf("span effects = %v", eff)
		}
	})

	t.Run("7 jobtag != NULL requirement", func(t *testing.T) {
		before := e.log.Len()
		_, err := dev.Submit(`&(executable=sim)(count=2)`, "")
		if !gram.IsAuthorizationDenied(wire(err)) {
			t.Fatalf("untagged submit not denied: %v", err)
		}
		rec, tr := e.lastDecision(t, before)
		// The organization-wide "(jobtag != NULL)" requirement rejects a
		// request that omits the attribute — the paper's NULL marker.
		if rec.Effect != "deny" {
			t.Errorf("record effect = %s", rec.Effect)
		}
		if eff := spanEffects(t, tr.Spans); eff[voPDP] != "deny" {
			t.Errorf("span effects = %v", eff)
		}
	})

	t.Run("8 unasserted action is default-denied", func(t *testing.T) {
		before := e.log.Len()
		// No statement grants the developer "signal" — on their own job
		// or anyone's. Both sources abstain and the combiner's default
		// deny closes the gap.
		if err := wire(dev.Signal(devJob, "suspend", "")); !gram.IsAuthorizationDenied(err) {
			t.Fatalf("unasserted action not denied: %v", err)
		}
		rec, tr := e.lastDecision(t, before)
		if rec.Effect != "deny" || rec.Action != policy.ActionSignal {
			t.Errorf("record = %+v", rec)
		}
		if !strings.Contains(rec.Reason, "default deny") {
			t.Errorf("reason = %q, want the combiner's default deny", rec.Reason)
		}
		eff := spanEffects(t, tr.Spans)
		if eff[voPDP] != "not-applicable" || eff[localPDP] != "not-applicable" || len(eff) != 2 {
			t.Errorf("span effects = %v", eff)
		}
	})

	t.Run("9 limited proxy refused before callout", func(t *testing.T) {
		beforeRecords := e.log.Len()
		beforeTraces := e.traces.Len()
		c := gram.NewClient(e.addr(), e.limited, e.fab.Trust)
		defer c.Close()
		_, err := c.Submit(`&(executable=sim)(count=1)(jobtag=DEV)`, "")
		var pe *gram.ProtoError
		if !asProtoError(wire(err), &pe) || pe.Code != gram.CodeAuthentication {
			t.Fatalf("limited-proxy submit = %v, want an authentication refusal", err)
		}
		// The GT2 rule fires before any callout: no audit record, but the
		// request still left a retrievable (span-less) trace.
		if got := e.log.Len(); got != beforeRecords {
			t.Errorf("audit records = %d, want %d (refusal precedes the PEP)", got, beforeRecords)
		}
		if got := e.traces.Len(); got != beforeTraces+1 {
			t.Fatalf("retained traces = %d, want %d", got, beforeTraces+1)
		}
		ids := e.traces.RequestIDs()
		tr, ok := e.traces.Get(ids[len(ids)-1])
		if !ok {
			t.Fatal("newest trace not retrievable")
		}
		if tr.Subject != confDev || len(tr.Spans) != 0 {
			t.Errorf("pre-callout trace = %+v, want the developer's span-less trace", tr)
		}
	})

	// The metric counters saw every decision above: 5 permits (scenarios
	// 1, 4, 5 and the submits inside 5 and 6) and 5 denies.
	sum.permits = m.DecisionsPermit.Load() - permits0
	sum.denies = m.DecisionsDeny.Load() - denies0
	if sum.permits != 5 || sum.denies != 5 {
		t.Errorf("decision counters = %d permits / %d denies, want 5/5", sum.permits, sum.denies)
	}
	if got := m.HandshakesFailed.Load() - failed0; got != 0 {
		t.Errorf("failed handshakes = %d, want 0", got)
	}
	if full := m.HandshakesFull.Load() - full0; full < 4 {
		t.Errorf("full handshakes = %d, want at least one per client", full)
	}
	if got := m.HandshakesResumed.Load() - resumed0; resumed && got < 3 {
		t.Errorf("resumed handshakes = %d, want one per primed client", got)
	} else if !resumed && got != 0 {
		t.Errorf("resumed handshakes = %d, want 0 without priming", got)
	}
	if got := m.DecisionSeconds.Count() - decided0; got != sum.permits+sum.denies {
		t.Errorf("latency histogram count = %d, want %d", got, sum.permits+sum.denies)
	}

	ring := e.log.Records()[firstRecord:]
	checkTrail(t, ring, e.committed(t)[firstCommitted:])
	for _, rec := range ring {
		sum.records = append(sum.records, digestRecord(rec))
	}
	return sum
}

func TestConformanceScenarios(t *testing.T) {
	runConformanceScenarios(t, false)
}

// TestConformanceScenariosResumedSession replays the whole suite twice
// — once over full GSI handshakes, once over resumed session tickets —
// and asserts the observable outcomes are identical: same decisions in
// the same order, same audit-record digests, same permit/deny counts.
// The paper's authorization semantics must be invariant under the
// transport's session-resumption optimization.
func TestConformanceScenariosResumedSession(t *testing.T) {
	var full, resumed confSummary
	t.Run("full", func(t *testing.T) { full = runConformanceScenarios(t, false) })
	t.Run("resumed", func(t *testing.T) { resumed = runConformanceScenarios(t, true) })
	if t.Failed() {
		t.Fatal("scenario replay failed; skipping the cross-mode comparison")
	}
	diffSummaries(t, "full", full, "resumed", resumed)
}

// TestConformanceWarmSignatureMemo replays the suite twice against one
// resource on one fabric. The second replay presents the certificates
// the first one did — the members', the limited proxy, the host's — so
// every chain signature comes out of the trust store's memo, and it
// must reproduce the first replay exactly: same wire codes (scenario 9
// still refused), same audit digests, same permit/deny counts, over
// full handshakes and over resumed sessions.
func TestConformanceWarmSignatureMemo(t *testing.T) {
	for _, mode := range []struct {
		name    string
		resumed bool
	}{{"full", false}, {"resumed", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			e := newConfEnv(t)
			var cold, warm confSummary
			t.Run("cold", func(t *testing.T) { cold = replayConformance(t, e, mode.resumed) })
			before := e.fab.Trust.SigStats()
			t.Run("warm", func(t *testing.T) { warm = replayConformance(t, e, mode.resumed) })
			if t.Failed() {
				t.Fatal("scenario replay failed; skipping the comparison")
			}
			after := e.fab.Trust.SigStats()
			checks, hits := after.Checks-before.Checks, after.MemoHits-before.MemoHits
			if checks == 0 || hits != checks {
				t.Errorf("warm replay: %d of %d chain signatures came from the memo, want all", hits, checks)
			}
			if got := e.metrics.CertSigMemoHits.Load(); got == 0 || got > e.metrics.CertSigChecks.Load() {
				t.Errorf("gsi_cert_sig_memo_hits_total = %d of gsi_cert_sig_checks_total = %d", got, e.metrics.CertSigChecks.Load())
			}
			diffSummaries(t, "cold", cold, "warm", warm)
		})
	}
}

// TestConformanceFallbackCodec replays the suite with clients none of
// whose frames — handshake legs, ticket resumptions, GRAM requests — is
// in the form the server's fast parsers take: a relay re-spells each one
// with its members reordered and whitespace around every token, so the
// server decodes all of them with encoding/json. Wire codes, audit
// digests and decision counts must be those of the fast-path replay:
// the hand-written codec is an optimization of the format's definition,
// not a second definition.
func TestConformanceFallbackCodec(t *testing.T) {
	for _, mode := range []struct {
		name    string
		resumed bool
	}{{"full", false}, {"resumed", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			var fast, fallback confSummary
			t.Run("fast", func(t *testing.T) { fast = runConformanceScenarios(t, mode.resumed) })
			e := newConfEnv(t)
			relay, err := faultinject.NewReframer(e.res.Addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(relay.Close)
			e.via = relay.Addr
			t.Run("fallback", func(t *testing.T) { fallback = replayConformance(t, e, mode.resumed) })
			if t.Failed() {
				t.Fatal("scenario replay failed; skipping the comparison")
			}
			// Four connections' hello and proof and the scenarios' eleven
			// requests, at the least, went through the relay.
			if got := relay.Frames(); got < 4*2+11 {
				t.Errorf("the relay re-spelled %d frames; the replay did not go through it", got)
			}
			diffSummaries(t, "fast", fast, "fallback", fallback)
		})
	}
}

// newDaemonConfEnv is newConfEnv with the resource assembled the way
// cmd/gatekeeper assembles it: from the equivalent command line, with
// the policies in files on disk.
func newDaemonConfEnv(t *testing.T) *confEnv {
	t.Helper()
	e := newConfFabric(t)
	var gridMap strings.Builder
	for dn, accounts := range confGridMap {
		gridMap.WriteString(strconv.Quote(string(dn)) + " " + strings.Join(accounts, ",") + "\n")
	}
	path := writeFiles(t, map[string]string{
		"gridmap":      gridMap.String(),
		"vo.policy":    confVOPolicy,
		"local.policy": confLocalPolicy,
	})
	// The daemon's log writes where -audit-dir points, so the replay can
	// read back what it committed.
	auditDir := t.TempDir()
	if root := os.Getenv("CONFORMANCE_AUDIT_DIR"); root != "" {
		auditDir = filepath.Join(root, t.Name())
	}
	var cfg ResourceConfig
	e.res, cfg = daemonResource(t, e.fab,
		"-gridmap", path("gridmap"), "-mode", "callout", "-listen", "127.0.0.1:0",
		"-vo-policy", path("vo.policy"), "-local-policy", path("local.policy"),
		"-metrics-addr", "127.0.0.1:0", "-audit-dir", auditDir)
	e.log, e.metrics, e.traces = cfg.AuditLog, cfg.Metrics, cfg.DecisionTraces
	e.segment = dirSegment(auditDir)
	if err := e.res.Start(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConformanceDaemonBuilt replays the suite against a resource built
// from cmd/gatekeeper's flags and requires what the client saw and what
// the audit log recorded to be identical to a replay against the
// API-built resource — over full handshakes and resumed sessions, and
// again on a second, warm replay of the same daemon-built resource.
func TestConformanceDaemonBuilt(t *testing.T) {
	for _, mode := range []struct {
		name    string
		resumed bool
	}{{"full", false}, {"resumed", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			var library, cold, warm confSummary
			t.Run("library", func(t *testing.T) { library = runConformanceScenarios(t, mode.resumed) })
			e := newDaemonConfEnv(t)
			t.Run("daemon", func(t *testing.T) { cold = replayConformance(t, e, mode.resumed) })
			t.Run("daemon-warm", func(t *testing.T) { warm = replayConformance(t, e, mode.resumed) })
			if t.Failed() {
				t.Fatal("scenario replay failed; skipping the comparison")
			}
			diffSummaries(t, "library", library, "daemon", cold)
			diffSummaries(t, "daemon", cold, "daemon-warm", warm)
		})
	}
}

// TestConformanceRequestIDsEndToEnd submits concurrently from three
// identities and checks that request IDs never cross wires: every audit
// record's ID resolves to a trace whose subject and action match that
// record, and no ID repeats.
func TestConformanceRequestIDsEndToEnd(t *testing.T) {
	e := newConfEnv(t)
	clients := map[string]*gram.Client{
		confDev: mustClient(t, e.res, e.dev),
		confAna: mustClient(t, e.res, e.ana),
		confAdm: mustClient(t, e.res, e.adm),
	}
	rsls := map[string]string{
		confDev: `&(executable=sim)(count=1)(jobtag=DEV)`,
		confAna: `&(executable=TRANSP)(jobtag=NFC)`,
		confAdm: `&(executable=TRANSP)(jobtag=NFC)`,
	}

	const perUser = 8
	var wg sync.WaitGroup
	for dn, c := range clients {
		wg.Add(1)
		go func(dn string, c *gram.Client) {
			defer wg.Done()
			for i := 0; i < perUser; i++ {
				if _, err := c.Submit(rsls[dn], ""); err != nil {
					t.Errorf("%s submit: %v", dn, err)
					return
				}
			}
		}(dn, c)
	}
	wg.Wait()

	recs := e.log.Records()
	if len(recs) != len(clients)*perUser {
		t.Fatalf("audit records = %d, want %d", len(recs), len(clients)*perUser)
	}
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if rec.RequestID == "" {
			t.Fatal("audit record carries no request ID")
		}
		if seen[rec.RequestID] {
			t.Fatalf("request ID %s appears on two records", rec.RequestID)
		}
		seen[rec.RequestID] = true
		tr, ok := e.traces.Get(rec.RequestID)
		if !ok {
			t.Fatalf("no trace for request %s", rec.RequestID)
		}
		if tr.Subject != string(rec.Subject) || tr.Action != rec.Action {
			t.Fatalf("trace %s carries %s/%s but its record says %s/%s",
				rec.RequestID, tr.Subject, tr.Action, rec.Subject, rec.Action)
		}
	}
}
