package gram

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// TestReusedWorkerCarriesNothingStale drives one worker through a
// submit carrying an account and a jobtag, a signal, and a status
// carrying neither: the worker reuses its request and reply for all
// three, and every reply and audit record must hold its own request's
// fields and nothing of the one before.
func TestReusedWorkerCarriesNothingStale(t *testing.T) {
	log, err := audit.NewPipeline(audit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	e := newEnv(t, envOpts{mode: AuthzCallout, tune: func(c *Config) {
		c.ConnWorkers = 1
		c.Audit = log
	}})
	conn, br := muxConn(t, e, boDN)
	send := func(m *Message) Message {
		t.Helper()
		if err := WriteMessage(conn, m); err != nil {
			t.Fatal(err)
		}
		reply, err := ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		return *reply
	}

	reply := send(&Message{Type: MsgJobRequest, ID: 1, RSL: boJob, Account: "bliu"})
	contact := reply.Contact
	if want := (Message{Type: MsgJobReply, ID: 1, Contact: contact}); contact == "" || reply != want {
		t.Fatalf("submit reply %+v (error %v), want %+v", reply, reply.Err, want)
	}
	reply = send(&Message{Type: MsgManage, ID: 2, JobContact: contact, Action: ManageSignal, Signal: SignalSuspend})
	if want := (Message{Type: MsgManageReply, ID: 2, State: string(StateSuspended), Owner: string(boDN)}); reply != want {
		t.Fatalf("signal reply %+v (error %v), want %+v", reply, reply.Err, want)
	}
	reply = send(&Message{Type: MsgManage, ID: 3, JobContact: contact, Action: ManageStatus})
	if want := (Message{Type: MsgManageReply, ID: 3, State: string(StateSuspended), Owner: string(boDN)}); reply != want {
		t.Fatalf("status reply %+v (error %v), want %+v", reply, reply.Err, want)
	}

	// Each record is what the chain decides for that request alone.
	spec, err := rsl.ParseSpec(boJob)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*core.Request{
		{Subject: boDN, Action: policy.ActionStart, JobID: contact, Spec: spec, Account: "bliu"},
		{Subject: boDN, Action: policy.ActionSignal, JobID: contact, JobOwner: boDN, Spec: spec},
		{Subject: boDN, Action: policy.ActionInformation, JobID: contact, JobOwner: boDN, Spec: spec},
	}
	log.Flush()
	recs := log.Records()
	if len(recs) != len(reqs) {
		t.Fatalf("%d audit records, want %d: %+v", len(recs), len(reqs), recs)
	}
	for i, req := range reqs {
		d := e.gk.cfg.Registry.InvokeContext(context.Background(), core.CalloutJobManager, req)
		want := audit.DecisionRecord("", core.CalloutJobManager, req, d)
		got := recs[i]
		got.Seq, got.Time, got.RequestID = 0, want.Time, ""
		if got.Effect != "permit" || !reflect.DeepEqual(got, want) {
			t.Errorf("record %d:\n %+v\nwant\n %+v", i, got, want)
		}
	}
}

// TestTeardownNeverReusesAClosedSlot tears a client's connection down
// under calls in flight: each of them fails as a lost connection, the
// next calls succeed on a fresh connection, and no slot the teardown
// closed is ever handed out again.
func TestTeardownNeverReusesAClosedSlot(t *testing.T) {
	const inFlight = 4
	var (
		held atomic.Int32
		hold = make(chan struct{})
	)
	e := newEnv(t, envOpts{mode: AuthzCallout, registry: func(r *core.Registry) {
		r.Bind(core.CalloutJobManager, core.PDPFunc{ID: "held", Fn: func(ctx context.Context, req *core.Request) core.Decision {
			if req.Action != policy.ActionStart {
				held.Add(1)
				select {
				case <-hold:
				case <-ctx.Done():
				}
			}
			return core.PermitDecision("held", "ok")
		}})
	}})
	bo := e.client(boDN)
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			_, err := bo.Status(contact)
			errs <- err
		}()
	}
	eventually(t, "every status to reach the PDP", func() bool { return held.Load() == inFlight })
	bo.Close()
	for i := 0; i < inFlight; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "connection lost") {
			t.Errorf("in-flight status after teardown: %v, want connection lost", err)
		}
	}
	close(hold)

	var wg sync.WaitGroup
	for i := 0; i < 2*inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := bo.Status(contact)
			if err != nil || st.State != StateActive || st.Owner != boDN {
				t.Errorf("status on a fresh connection: %+v, %v", st, err)
			}
		}()
	}
	wg.Wait()
	bo.mu.Lock()
	defer bo.mu.Unlock()
	for _, s := range bo.free {
		select {
		case _, ok := <-s.done:
			if !ok {
				t.Fatal("a slot closed by teardown is back on the free list")
			}
			t.Fatal("a free slot holds an unreceived reply")
		default:
		}
	}
}
