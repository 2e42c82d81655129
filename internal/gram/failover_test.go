package gram

import (
	"net"
	"testing"
	"time"

	"gridauth/internal/accounts"
	"gridauth/internal/core"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/policy"
	"gridauth/internal/resilience"
)

const gkDN2 = gsi.DN("/O=Grid/O=Globus/CN=gatekeeper/fusion2.anl.gov")

// TestClientFailoverResumesOnSecondNode is the failover contract end to
// end: two gatekeeper nodes front ONE resource (shared scheduler
// cluster, shared job table, shared ticket-secret ring). A client
// submits through node A, node A is killed mid-session, and the next
// management request must complete on node B — reached through the
// failover list, authenticated by GSI session RESUMPTION (the ticket
// node A granted redeems against the replicated ring), and answered
// for the job node A created (shared table).
func TestClientFailoverResumesOnSecondNode(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	boCred, err := ca.Issue(boDN, gsi.KindUser)
	if err != nil {
		t.Fatal(err)
	}

	gmap := gridmap.New()
	gmap.Add(boDN, "bliu")
	acctMgr := accounts.NewManager()
	acctMgr.AddStatic("bliu", accounts.Rights{})

	reg := core.NewRegistry()
	core.RegisterBuiltinDrivers(reg)
	vo := &core.PolicyPDP{Policy: policy.MustParse(voPolicy, "VO:NFC")}
	local := &core.PolicyPDP{Policy: policy.MustParse(localPolicy, "local")}
	reg.Bind(core.CalloutJobManager, vo)
	reg.Bind(core.CalloutJobManager, local)
	reg.Bind(core.CalloutGatekeeper, vo)
	reg.Bind(core.CalloutGatekeeper, local)

	// The federation: every node gets the SAME cluster, job table and
	// secret ring.
	cluster := jobcontrol.NewCluster(16)
	jobs := NewJobTable()
	ring, err := gsi.NewSecretRing(time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	start := func(dn gsi.DN) (*Gatekeeper, string) {
		t.Helper()
		cred, err := ca.Issue(dn, gsi.KindService)
		if err != nil {
			t.Fatal(err)
		}
		gk, err := NewGatekeeper(Config{
			Credential: cred,
			Trust:      trust,
			GridMap:    gmap,
			Accounts:   acctMgr,
			Registry:   reg,
			Mode:       AuthzLegacy,
			Cluster:    cluster,
			Jobs:       jobs,
			TicketRing: ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = gk.Serve(l) }()
		t.Cleanup(gk.Close)
		return gk, l.Addr().String()
	}
	gkA, addrA := start(gkDN)
	gkB, addrB := start(gkDN2)

	proxy, err := gsi.Delegate(boCred, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(addrA, proxy, trust)
	t.Cleanup(c.Close)
	c.SetFailover(addrA, addrB)
	c.SetRetryPolicy(resilience.Policy{
		Attempts:  4,
		BaseDelay: 5 * time.Millisecond,
		MaxDelay:  25 * time.Millisecond,
	})

	contact, err := c.Submit(boJob, "")
	if err != nil {
		t.Fatalf("submit through node A: %v", err)
	}
	if c.Resumed() {
		t.Fatal("first connection cannot be a resumption")
	}
	// The shared table makes the job visible on BOTH nodes.
	if _, ok := gkA.Job(contact); !ok {
		t.Fatalf("node A does not know %s", contact)
	}
	if _, ok := gkB.Job(contact); !ok {
		t.Fatalf("node B does not know %s (job table not shared)", contact)
	}

	// Kill node A: listener and the client's live connection both drop.
	gkA.Close()

	// The next management request must succeed on node B. The first
	// attempt may still observe the dying connection (a transport error
	// surfaces to the caller by design), so allow a short re-ask loop —
	// exactly what a real client does.
	var st JobStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err = c.Status(contact)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never recovered after node kill: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateActive {
		t.Errorf("state after failover = %s, want ACTIVE", st.State)
	}
	if st.Owner != boDN {
		t.Errorf("owner after failover = %s, want %s", st.Owner, boDN)
	}
	if !c.Resumed() {
		t.Error("failover connection did not resume the GSI session (ring not shared?)")
	}

	// Management authority survives too: the initiator cancels their
	// node-A job through node B.
	if err := c.Cancel(contact); err != nil {
		t.Errorf("cancel through node B: %v", err)
	}
}
