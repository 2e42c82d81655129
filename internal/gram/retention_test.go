package gram

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
)

// retentionOf measures how many ended jobs a scheduler keeps: jobs end
// one by one until the first of them is forgotten.
func retentionOf(t *testing.T) int {
	t.Helper()
	c := jobcontrol.NewCluster(1)
	first := endDirect(t, c, 1)
	for ended := 1; ended < 1<<16; ended++ {
		if _, err := c.Lookup(first); err != nil {
			return ended - 1
		}
		endDirect(t, c, 1)
	}
	t.Fatal("the scheduler never forgets an ended job")
	return 0
}

// endDirect submits n jobs straight to the scheduler, bypassing GRAM, and
// cancels each; it returns the last one's ID.
func endDirect(t *testing.T, c *jobcontrol.Cluster, n int) string {
	t.Helper()
	var id string
	for i := 0; i < n; i++ {
		j, err := c.Submit(jobcontrol.JobSpec{Executable: "direct", Duration: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Cancel(j.ID, "direct"); err != nil {
			t.Fatal(err)
		}
		id = j.ID
	}
	return id
}

// TestEndedJobsLeaveTheTable ends three retentions' worth of jobs beside
// a few that never end: a third cancelled through GRAM, a third
// completed and a third failed by the scheduler's clock. The job table
// and the scheduler never hold more than the live jobs and one
// retention of ended ones, no contact is issued twice, the last
// retention ended jobs still report how they ended, every older one is
// an unknown contact, and the live jobs are untouched.
func TestEndedJobsLeaveTheTable(t *testing.T) {
	r := retentionOf(t)
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	submit := func(rsl string) string {
		t.Helper()
		contact, err := bo.Submit(rsl, "")
		if err != nil {
			t.Fatal(err)
		}
		return contact
	}
	const job = `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)`
	var live []string
	for i := 0; i < 4; i++ {
		live = append(live, submit(job+"(simduration=100000000)"))
	}
	issued := map[string]bool{}
	var ended []string
	want := map[string]JobState{}
	for i := 0; len(ended) < 3*r; i++ {
		var contact string
		switch i % 3 {
		case 0:
			contact = submit(job + "(simduration=600)")
			if err := bo.Cancel(contact); err != nil {
				t.Fatal(err)
			}
			want[contact] = StateCanceled
		case 1:
			contact = submit(job + "(simduration=1)")
			e.cluster.Advance(time.Second)
			want[contact] = StateDone
		default:
			contact = submit(job + "(simduration=600)(maxtime=1)")
			e.cluster.Advance(time.Minute)
			want[contact] = StateFailed
		}
		if issued[contact] {
			t.Fatalf("contact %s issued twice", contact)
		}
		issued[contact] = true
		ended = append(ended, contact)
		bound := len(live) + r
		if n := e.gk.jobs.Len(); n > bound {
			t.Fatalf("after %d ended jobs the job table holds %d, want at most %d", len(ended), n, bound)
		}
		if i%256 == 0 || len(ended) == 3*r {
			if n := len(e.cluster.Jobs()); n > bound {
				t.Fatalf("after %d ended jobs the scheduler holds %d, want at most %d", len(ended), n, bound)
			}
		}
	}
	for _, contact := range live {
		if st, err := bo.Status(contact); err != nil || st.State != StateActive {
			t.Errorf("live job %s: %+v, %v", contact, st, err)
		}
	}
	old, kept := ended[:len(ended)-r], ended[len(ended)-r:]
	for _, contact := range kept {
		if st, err := bo.Status(contact); err != nil || st.State != want[contact] {
			t.Fatalf("recently ended job %s: %+v, %v; want %s", contact, st, err, want[contact])
		}
	}
	for _, contact := range old {
		var pe *ProtoError
		if _, err := bo.Status(contact); !errors.As(err, &pe) || pe.Code != CodeNoSuchJob {
			t.Fatalf("job %s, ended %d jobs ago: %v, want %s", contact, r, err, CodeNoSuchJob)
		}
	}
}

// countingChain binds the test policies, VO and local, to both callout
// types, each behind a counter of the decisions asked of it.
func countingChain(calls *atomic.Int64) func(*core.Registry) {
	return func(reg *core.Registry) {
		for _, p := range []*core.PolicyPDP{
			{Policy: policy.MustParse(voPolicy, "VO:NFC")},
			{Policy: policy.MustParse(localPolicy, "local")},
		} {
			counted := core.PDPFunc{ID: p.Name(), Fn: func(ctx context.Context, r *core.Request) core.Decision {
				calls.Add(1)
				return p.Authorize(ctx, r)
			}}
			reg.Bind(core.CalloutJobManager, counted)
			reg.Bind(core.CalloutGatekeeper, counted)
		}
	}
}

// TestReapedContactIsUnknown: once the scheduler reaps a job, its
// contact answers every management request exactly as a contact never
// issued does — the same reply bytes, from the gatekeeper that ran the
// job and from a fresh one that never heard of it — for the owner, a
// jobtag peer the policy lets manage the job and a stranger alike. No
// PDP is asked, and no audit record or decision counter moves: nothing
// was decided.
func TestReapedContactIsUnknown(t *testing.T) {
	r := retentionOf(t)
	var calls atomic.Int64
	m := obs.NewMetrics()
	log, err := audit.NewPipeline(audit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	chain := countingChain(&calls)
	e := newEnv(t, envOpts{mode: AuthzCallout, registry: func(reg *core.Registry) {
		chain(reg)
		reg.SetMetrics(m)
	}, tune: func(c *Config) { c.Audit = log }})
	bo, kate := e.client(boDN), e.client(kateDN)
	contact, err := bo.Submit(`&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(simduration=600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kate.Status(contact); err != nil { // the peer may manage it
		t.Fatalf("jobtag peer's status of a live job: %v", err)
	}
	if err := bo.Cancel(contact); err != nil {
		t.Fatal(err)
	}
	endDirect(t, e.cluster, r-1)
	if st, err := kate.Status(contact); err != nil || st.State != StateCanceled {
		t.Fatalf("the last of %d ended jobs: %+v, %v; want %s", r, st, err, StateCanceled)
	}
	endDirect(t, e.cluster, 1)
	if _, ok := e.gk.Job(contact); ok {
		t.Fatalf("%s is still in the job table after %d more jobs ended", contact, r)
	}

	fresh := newEnv(t, envOpts{mode: AuthzCallout})
	requests := []Message{
		{Type: MsgManage, JobContact: contact, Action: ManageStatus},
		{Type: MsgManage, JobContact: contact, Action: ManageCancel},
		{Type: MsgManage, JobContact: contact, Action: ManageSignal, Signal: SignalSuspend},
	}
	log.Flush()
	callsBefore, recordsBefore, decisionsBefore := calls.Load(), log.Len(), decisions(m)
	if callsBefore == 0 || recordsBefore == 0 || decisionsBefore == 0 {
		t.Fatalf("the live job's requests left %d PDP calls, %d records, %d decisions; the counters are not wired", callsBefore, recordsBefore, decisionsBefore)
	}
	for _, dn := range []struct {
		who string
		dn  gsi.DN
	}{{"owner", boDN}, {"jobtag peer", kateDN}, {"stranger", samDN}} {
		conn, br := muxConn(t, e, dn.dn)
		freshConn, freshBr := muxConn(t, fresh, dn.dn)
		for i, req := range requests {
			req.ID = uint64(i + 1)
			got, never := rawReply(t, conn, br, &req), rawReply(t, freshConn, freshBr, &req)
			if !bytes.Equal(got, never) {
				t.Errorf("%s's %s of a reaped contact:\n %s\nwant what a never-issued contact gets:\n %s", dn.who, req.Action, got, never)
			}
			if reply, err := ReadMessage(bufio.NewReader(bytes.NewReader(got))); err != nil || reply.Err == nil || reply.Err.Code != CodeNoSuchJob {
				t.Errorf("%s's %s of a reaped contact: %s, want %s", dn.who, req.Action, got, CodeNoSuchJob)
			}
		}
	}
	log.Flush()
	if n := calls.Load() - callsBefore; n != 0 {
		t.Errorf("reaped-contact requests asked the PDPs %d times, want 0", n)
	}
	if n := log.Len() - recordsBefore; n != 0 {
		t.Errorf("reaped-contact requests wrote %d audit records, want 0", n)
	}
	if n := decisions(m) - decisionsBefore; n != 0 {
		t.Errorf("reaped-contact requests moved the decision counters by %d, want 0", n)
	}
}

// rawReply sends one request and returns the reply line as it came off
// the wire.
func rawReply(t *testing.T, conn net.Conn, br *bufio.Reader, m *Message) []byte {
	t.Helper()
	if err := WriteMessage(conn, m); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// decisions sums the callout decision counters.
func decisions(m *obs.Metrics) uint64 {
	return m.DecisionsPermit.Load() + m.DecisionsDeny.Load() + m.DecisionsError.Load() + m.DecisionsNotApplicable.Load()
}

// TestFederatedJobIsReapedOnce: two gatekeepers share one job table and
// one scheduler. The table watches the scheduler once, not once per
// node; a job started through one node and cancelled through the other
// is reaped once, and is then unknown through both.
func TestFederatedJobIsReapedOnce(t *testing.T) {
	r := retentionOf(t)
	a := newEnv(t, envOpts{mode: AuthzLegacy})
	b := newEnv(t, envOpts{mode: AuthzLegacy, tune: func(c *Config) {
		c.Cluster, c.Jobs = a.cluster, a.gk.jobs
	}})
	jobs, cluster := a.gk.jobs, a.cluster
	if n := len(jobs.clusters); n != 1 {
		t.Fatalf("the shared table watches %d schedulers, want 1", n)
	}
	reaps := map[string]int{}
	cluster.Subscribe(func(ev jobcontrol.Event) {
		if ev.Kind == jobcontrol.EventReaped {
			reaps[ev.JobID]++
		}
	})
	atA, atB := a.client(boDN), b.client(boDN)
	contact, err := atA.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	jmi, ok := jobs.Lookup(contact)
	if !ok {
		t.Fatalf("no JMI for %s", contact)
	}
	lrm := jmi.LRMJobID()
	if err := atB.Cancel(contact); err != nil {
		t.Fatal(err)
	}
	endDirect(t, cluster, r)
	if reaps[lrm] != 1 {
		t.Errorf("job %s reaped %d times, want once", lrm, reaps[lrm])
	}
	for node, c := range map[string]*Client{"A": atA, "B": atB} {
		var pe *ProtoError
		if _, err := c.Status(contact); !errors.As(err, &pe) || pe.Code != CodeNoSuchJob {
			t.Errorf("status of reaped %s through node %s: %v, want %s", contact, node, err, CodeNoSuchJob)
		}
	}
	if n := jobs.Len(); n != 0 {
		t.Errorf("the shared table holds %d JMIs, want 0", n)
	}
}
