package gridauth

import (
	"net"
	"reflect"
	"strings"
	"testing"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gridftp"
	"gridauth/internal/gsi"
	"gridauth/internal/mds"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// recordFields renders the non-empty fields of an audit record under
// their JSON names. The request ID is fresh per request and the time
// per clock read, so they are reduced to "set"; a job ID equal to
// contact reads "$contact"; spans keep their PDP, effect and source and
// drop their latency.
func recordFields(r audit.Record, contact string) map[string]string {
	out := map[string]string{}
	put := func(name, v string) {
		if v != "" {
			out[name] = v
		}
	}
	if r.RequestID != "" {
		out["requestId"] = "set"
	}
	put("subject", string(r.Subject))
	put("action", r.Action)
	if r.JobID != "" && r.JobID == contact {
		out["jobId"] = "$contact"
	} else {
		put("jobId", r.JobID)
	}
	put("jobOwner", string(r.JobOwner))
	put("pdp", r.PDP)
	put("effect", r.Effect)
	put("source", r.Source)
	put("reason", r.Reason)
	if r.Elapsed != 0 {
		out["elapsedNanos"] = r.Elapsed.String()
	}
	if len(r.Spans) > 0 {
		spans := make([]string, len(r.Spans))
		for i, sp := range r.Spans {
			spans[i] = sp.PDP + "=" + sp.Effect + "@" + sp.Source
		}
		out["spans"] = strings.Join(spans, ",")
	}
	return out
}

// newAuditLog builds a log whose ring holds capacity records (0: the
// default) and closes it when the test ends — after the cleanups
// registered later, so whatever appends to it has stopped by then.
func newAuditLog(t *testing.T, capacity int) *audit.Log {
	t.Helper()
	log, err := audit.NewPipeline(audit.Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := log.Close(); err != nil {
			t.Errorf("audit close: %v", err)
		}
	})
	return log
}

// checkTraces requires every record in log to resolve, by its request
// ID, to a trace in traces with the record's action and span count.
func checkTraces(t *testing.T, log *audit.Log, traces *obs.TraceStore) {
	t.Helper()
	for _, r := range log.Records() {
		tr, ok := traces.Get(r.RequestID)
		if !ok || tr.Action != r.Action || len(tr.Spans) != len(r.Spans) {
			t.Errorf("%s record %q: trace %+v (found %v)", r.Action, r.RequestID, tr, ok)
		}
	}
}

// checkRecords compares what log holds, rendered by recordFields,
// against want.
func checkRecords(t *testing.T, log *audit.Log, contact string, want []map[string]string) {
	t.Helper()
	recs := log.Records()
	if len(recs) != len(want) {
		t.Fatalf("records = %d, want %d: %+v", len(recs), len(want), recs)
	}
	for i, r := range recs {
		if got := recordFields(r, contact); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("record %d:\n  got  %v\n  want %v", i, got, want[i])
		}
	}
}

// checkDecisionCounters requires the registry's decision counters to
// count every decision in log exactly once.
func checkDecisionCounters(t *testing.T, m *obs.Metrics, log *audit.Log) {
	t.Helper()
	counted := m.DecisionsPermit.Load() + m.DecisionsDeny.Load() + m.DecisionsError.Load() + m.DecisionsNotApplicable.Load()
	if recs := len(log.Records()); counted != uint64(recs) {
		t.Errorf("authz_decisions_* count %d decisions, audit log holds %d decision records", counted, recs)
	}
}

const pinKate = "/O=Grid/CN=Kate"

// TestProducerRecordFields pins, for each producer of audit records —
// the GRAM PEP in both placements, GridFTP and MDS, all enforcing
// through audit.Enforce — the exact set of fields one permit and one
// deny fill in, and their values. Every service mints a request ID per
// request, and every record's ID resolves to a trace in the registry's
// store with the record's action and spans, and the registry's
// authz_decisions_* counters count each record's decision once. GRAM's
// records cover startup, a status query and a cancel.
func TestProducerRecordFields(t *testing.T) {
	const pol = pinKate + `: &(action = start)(executable = sim)(count<4) &(action = cancel information)(jobowner = self)`

	for _, tc := range []struct {
		name      string
		placement Placement
		pdp       string
	}{
		{"gram-job-manager", PlacementJobManager, core.CalloutJobManager},
		{"gram-gatekeeper", PlacementGatekeeper, core.CalloutGatekeeper},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, err := NewFabric("/O=Grid/CN=Pin CA")
			if err != nil {
				t.Fatal(err)
			}
			kate, err := fab.IssueUser(pinKate)
			if err != nil {
				t.Fatal(err)
			}
			log := newAuditLog(t, 0)
			traces := obs.NewTraceStore(16)
			metrics := obs.NewMetrics()
			res, err := fab.StartResource(ResourceConfig{
				Name: "pin.anl.gov", Mode: ModeCallout, Placement: tc.placement,
				GridMap:        map[gsi.DN][]string{kate.Identity(): {"kate"}},
				VOPolicy:       pol,
				AuditLog:       log,
				DecisionTraces: traces,
				Metrics:        metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(res.Close)
			c, err := res.Client(kate)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			contact, err := c.Submit(`&(executable=sim)(count=2)(simduration=600)`, "")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Submit(`&(executable=sim)(count=8)`, ""); err == nil {
				t.Fatal("oversized submit permitted")
			}
			if _, err := c.Status(contact); err != nil {
				t.Fatal(err)
			}
			if err := c.Cancel(contact); err != nil {
				t.Fatal(err)
			}
			span := func(effect string) string { return "policy:VO=" + effect + "@policy:VO" }
			checkRecords(t, log, contact, []map[string]string{{
				"requestId": "set", "subject": pinKate, "action": "start", "jobId": "$contact",
				"pdp": tc.pdp, "effect": "permit", "source": "require-all-permit(policy:VO)",
				"reason": "policy:VO: granted by /O=Grid/CN=Kate#0",
				"spans":  span("permit"),
			}, {
				"requestId": "set", "subject": pinKate, "action": "start", "jobId": "gram://gatekeeper/pin.anl.gov/job/2",
				"pdp": tc.pdp, "effect": "deny", "source": "policy:VO",
				"reason": "no grant satisfied: /O=Grid/CN=Kate#0: clause (count<4) not satisfied",
				"spans":  span("deny"),
			}, {
				"requestId": "set", "subject": pinKate, "action": "information",
				"jobId": "$contact", "jobOwner": pinKate,
				"pdp": tc.pdp, "effect": "permit", "source": "require-all-permit(policy:VO)",
				"reason": "policy:VO: granted by /O=Grid/CN=Kate#1",
				"spans":  span("permit"),
			}, {
				"requestId": "set", "subject": pinKate, "action": "cancel",
				"jobId": "$contact", "jobOwner": pinKate,
				"pdp": tc.pdp, "effect": "permit", "source": "require-all-permit(policy:VO)",
				"reason": "policy:VO: granted by /O=Grid/CN=Kate#1",
				"spans":  span("permit"),
			}})
			checkTraces(t, log, traces)
			checkDecisionCounters(t, metrics, log)
		})
	}

	t.Run("gridftp", func(t *testing.T) {
		ca, err := gsi.NewCA("/O=Grid/CN=Pin CA")
		if err != nil {
			t.Fatal(err)
		}
		trust := gsi.NewTrustStore(ca.Certificate())
		kate, err := ca.Issue(pinKate, gsi.KindUser)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := ca.Issue("/O=Grid/CN=gridftp/pin.anl.gov", gsi.KindService)
		if err != nil {
			t.Fatal(err)
		}
		reg := core.NewRegistry()
		traces := obs.NewTraceStore(16)
		reg.SetTraces(traces)
		metrics := obs.NewMetrics()
		reg.SetMetrics(metrics)
		reg.Bind(gridftp.CalloutGridFTP, &core.PolicyPDP{Policy: policy.MustParse(pinKate+`: &(action = get)(dir = /public)`, "site")})
		store := gridftp.NewStore()
		store.Put("/public/a", []byte("a"))
		srv, err := gridftp.NewServer(svc, trust, reg, store)
		if err != nil {
			t.Fatal(err)
		}
		log := newAuditLog(t, 0)
		srv.SetAudit(log)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve(l) }()
		t.Cleanup(func() { srv.Close(); <-done })
		c := gridftp.NewClient(l.Addr().String(), kate, trust)
		t.Cleanup(c.Close)
		if _, err := c.Get("/public/a"); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("/public/b", []byte("b")); err == nil {
			t.Fatal("put permitted")
		}
		checkRecords(t, log, "", []map[string]string{{
			"requestId": "set", "subject": pinKate, "action": "get",
			"pdp": gridftp.CalloutGridFTP, "effect": "permit", "source": "require-all-permit(policy:site)",
			"reason": "policy:site: granted by /O=Grid/CN=Kate#0",
			"spans":  "policy:site=permit@policy:site",
		}, {
			"requestId": "set", "subject": pinKate, "action": "put",
			"pdp": gridftp.CalloutGridFTP, "effect": "deny", "source": "require-all-permit(policy:site)",
			"reason": "no policy source grants the request (default deny)",
			"spans":  "policy:site=not-applicable@policy:site",
		}})
		checkTraces(t, log, traces)
		checkDecisionCounters(t, metrics, log)
	})

	t.Run("mds", func(t *testing.T) {
		dir := mds.NewDirectory()
		if err := dir.Register(mds.Record{Name: "r", Contact: "a:1"}); err != nil {
			t.Fatal(err)
		}
		reg := core.NewRegistry()
		traces := obs.NewTraceStore(16)
		reg.SetTraces(traces)
		metrics := obs.NewMetrics()
		reg.SetMetrics(metrics)
		reg.Bind(mds.CalloutMDS, &core.PolicyPDP{Policy: policy.MustParse(pinKate+`: &(action = information)(service = mds)`, "site")})
		log := newAuditLog(t, 0)
		query := mds.QueryPDP(reg, dir, log)
		member := &core.Request{Subject: pinKate, Action: policy.ActionInformation, Spec: rsl.NewSpec().Set("service", "mds")}
		if _, d := query(member, mds.Query{}); d.Effect != core.Permit {
			t.Fatalf("member query = %+v", d)
		}
		outsider := &core.Request{Subject: "/O=Else/CN=X", Action: policy.ActionInformation, Spec: member.Spec}
		if _, d := query(outsider, mds.Query{}); d.Effect != core.Deny {
			t.Fatalf("outsider query = %+v", d)
		}
		checkRecords(t, log, "", []map[string]string{{
			"requestId": "set", "subject": pinKate, "action": "information",
			"pdp": mds.CalloutMDS, "effect": "permit", "source": "require-all-permit(policy:site)",
			"reason": "policy:site: granted by /O=Grid/CN=Kate#0",
			"spans":  "policy:site=permit@policy:site",
		}, {
			"requestId": "set", "subject": "/O=Else/CN=X", "action": "information",
			"pdp": mds.CalloutMDS, "effect": "deny", "source": "require-all-permit(policy:site)",
			"reason": "no policy source grants the request (default deny)",
			"spans":  "policy:site=not-applicable@policy:site",
		}})
		checkTraces(t, log, traces)
		checkDecisionCounters(t, metrics, log)
	})
}
