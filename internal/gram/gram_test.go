package gram

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridauth/internal/accounts"
	"gridauth/internal/core"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/policy"
)

const (
	kateDN = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
	boDN   = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu")
	samDN  = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Sam Meder")
	gkDN   = gsi.DN("/O=Grid/O=Globus/CN=gatekeeper/fusion.anl.gov")
)

// voPolicy mirrors Figure 3 plus self-management and an information
// grant for Kate, so management paths are testable end to end.
const voPolicy = `
/O=Grid/O=Globus/OU=mcs.anl.gov: &(action = start)(jobtag != NULL)
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu:
  &(action = start)(executable = test1 test2)(directory = /sandbox/test)(jobtag = ADS NFC)(count<4)
  &(action = cancel information signal)(jobowner = self)
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey:
  &(action = start)(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)
  &(action = cancel information signal)(jobtag = NFC)
  &(action = cancel information signal)(jobowner = self)
`

const localPolicy = `
/O=Grid: &(action = start)(queue != fast)
/O=Grid: &(action = start cancel information signal)(executable != NULL)
`

// env is a full GRAM test deployment over real TCP.
type env struct {
	t       *testing.T
	ca      *gsi.CA
	trust   *gsi.TrustStore
	cluster *jobcontrol.Cluster
	gk      *Gatekeeper
	addr    string
	creds   map[gsi.DN]*gsi.Credential
	done    chan struct{}
}

type envOpts struct {
	mode      AuthzMode
	placement Placement
	tamper    bool
	dynamic   bool
	registry  func(*core.Registry)
	tune      func(*Config) // last-minute gatekeeper Config adjustments
}

func newEnv(t *testing.T, o envOpts) *env {
	t.Helper()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	creds := make(map[gsi.DN]*gsi.Credential)
	for _, dn := range []gsi.DN{kateDN, boDN, samDN} {
		c, err := ca.Issue(dn, gsi.KindUser)
		if err != nil {
			t.Fatal(err)
		}
		creds[dn] = c
	}
	gkCred, err := ca.Issue(gkDN, gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}

	gmap := gridmap.New()
	gmap.Add(kateDN, "keahey")
	gmap.Add(boDN, "bliu")
	// samDN deliberately has no account (shortcoming 5 test subject).

	acctMgr := accounts.NewManager()
	acctMgr.AddStatic("keahey", accounts.Rights{})
	acctMgr.AddStatic("bliu", accounts.Rights{})
	if o.dynamic {
		acctMgr.ProvisionPool("grid", 4)
	}

	reg := core.NewRegistry()
	core.RegisterBuiltinDrivers(reg)
	if o.registry != nil {
		o.registry(reg)
	} else {
		vo := &core.PolicyPDP{Policy: policy.MustParse(voPolicy, "VO:NFC")}
		local := &core.PolicyPDP{Policy: policy.MustParse(localPolicy, "local")}
		reg.Bind(core.CalloutJobManager, vo)
		reg.Bind(core.CalloutJobManager, local)
		reg.Bind(core.CalloutGatekeeper, vo)
		reg.Bind(core.CalloutGatekeeper, local)
	}

	cluster := jobcontrol.NewCluster(16)
	cfg := Config{
		Credential:      gkCred,
		Trust:           trust,
		GridMap:         gmap,
		Accounts:        acctMgr,
		DynamicAccounts: o.dynamic,
		Registry:        reg,
		Mode:            o.mode,
		Placement:       o.placement,
		Cluster:         cluster,
		TamperJMI:       o.tamper,
	}
	if o.tune != nil {
		o.tune(&cfg)
	}
	gk, err := NewGatekeeper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = gk.Serve(l)
	}()
	e := &env{
		t: t, ca: ca, trust: trust, cluster: cluster,
		gk: gk, addr: l.Addr().String(), creds: creds, done: done,
	}
	t.Cleanup(func() {
		gk.Close()
		<-done
	})
	return e
}

func (e *env) client(dn gsi.DN) *Client {
	e.t.Helper()
	cred, ok := e.creds[dn]
	if !ok {
		c, err := e.ca.Issue(dn, gsi.KindUser)
		if err != nil {
			e.t.Fatal(err)
		}
		e.creds[dn] = c
		cred = c
	}
	proxy, err := gsi.Delegate(cred, time.Hour, false)
	if err != nil {
		e.t.Fatal(err)
	}
	c := NewClient(e.addr, proxy, e.trust)
	e.t.Cleanup(c.Close)
	return c
}

const boJob = `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=600)`

// TestFig1BaselineTrace reproduces Figure 1: the stock GT2 interaction.
func TestFig1BaselineTrace(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})

	// 1. A mapped user's job request passes the grid-mapfile gate, is
	// mapped to an account, and a JMI submits it to the scheduler.
	bo := e.client(boDN)
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	jmi, ok := e.gk.Job(contact)
	if !ok {
		t.Fatalf("no JMI registered for %s", contact)
	}
	if jmi.Account != "bliu" {
		t.Errorf("account = %q, want bliu", jmi.Account)
	}
	st, err := bo.Status(contact)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateActive {
		t.Errorf("state = %s, want ACTIVE", st.State)
	}
	if st.Owner != boDN {
		t.Errorf("owner = %s", st.Owner)
	}

	// 2. Legacy management rule: only the initiator may manage.
	kate := e.client(kateDN)
	if err := kate.Cancel(contact); !IsAuthorizationDenied(err) {
		t.Errorf("non-initiator cancel = %v, want authorization denial", err)
	}
	if err := bo.Cancel(contact); err != nil {
		t.Errorf("initiator cancel failed: %v", err)
	}

	// 3. A user without a grid-mapfile entry is refused (shortcoming 5).
	sam := e.client(samDN)
	_, err = sam.Submit(boJob, "")
	var pe *ProtoError
	if !errors.As(err, &pe) || pe.Code != CodeNoLocalAccount {
		t.Errorf("unmapped user submit = %v, want no-local-account", err)
	}

	// 4. In legacy GT2, NOTHING fine-grain is checked: Bo can run any
	// executable with any count (shortcoming 1).
	if _, err := bo.Submit(`&(executable=rm)(count=16)(simduration=1)`, ""); err != nil {
		t.Errorf("legacy mode unexpectedly constrained the job: %v", err)
	}
}

// TestFig2ExtendedTrace reproduces Figure 2: the callout-extended GRAM.
func TestFig2ExtendedTrace(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzCallout})
	bo := e.client(boDN)
	kate := e.client(kateDN)

	// Policy-conforming submission passes both VO and local policy.
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Fine-grain startup control (shortcoming 1 removed).
	denials := []struct {
		name string
		rsl  string
	}{
		{"unsanctioned executable", `&(executable=rm)(directory=/sandbox/test)(jobtag=ADS)(count=2)`},
		{"count over limit", `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=8)`},
		{"missing jobtag", `&(executable=test1)(directory=/sandbox/test)(count=2)`},
		{"reserved queue", `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(queue=fast)`},
	}
	for _, d := range denials {
		_, err := bo.Submit(d.rsl, "")
		if !IsAuthorizationDenied(err) {
			t.Errorf("%s: err = %v, want authorization denial", d.name, err)
		} else if !strings.Contains(err.Error(), "policy") {
			t.Errorf("%s: denial does not name the policy source: %v", d.name, err)
		}
	}

	// VO-wide job management (shortcoming 2 removed): Bo's job carries
	// jobtag ADS which Kate does NOT manage; an NFC job she does.
	if err := kate.Cancel(contact); !IsAuthorizationDenied(err) {
		t.Errorf("kate canceling ADS job = %v, want denial", err)
	}
	nfcContact, err := bo.Submit(`&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(simduration=600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	st, err := kate.Status(nfcContact)
	if err != nil {
		t.Fatalf("kate status on NFC job: %v", err)
	}
	if st.Owner != boDN {
		t.Errorf("client could not learn the job originator: %s", st.Owner)
	}
	if err := kate.Signal(nfcContact, SignalSuspend, ""); err != nil {
		t.Fatalf("kate suspend on NFC job: %v", err)
	}
	if err := kate.Signal(nfcContact, SignalResume, ""); err != nil {
		t.Fatalf("kate resume: %v", err)
	}
	if err := kate.Cancel(nfcContact); err != nil {
		t.Fatalf("kate cancel on NFC job: %v", err)
	}
	// Self-management still works for the initiator.
	if err := bo.Cancel(contact); err != nil {
		t.Errorf("bo self-cancel: %v", err)
	}
	// Sam (no grants) is denied management of Bo's jobs.
	c2, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	sam := e.client(samDN)
	if err := sam.Cancel(c2); err == nil {
		t.Errorf("sam cancel permitted")
	}
}

func TestAuthorizationErrorsDistinguished(t *testing.T) {
	// A registry with no callout bound produces authorization SYSTEM
	// failures, not denials — the protocol distinction the paper added.
	e := newEnv(t, envOpts{mode: AuthzCallout, registry: func(r *core.Registry) {}})
	bo := e.client(boDN)
	_, err := bo.Submit(boJob, "")
	if !IsAuthorizationFailure(err) {
		t.Errorf("err = %v, want authorization system failure", err)
	}
	if IsAuthorizationDenied(err) {
		t.Errorf("system failure misreported as denial")
	}
}

func TestJMTrustModel(t *testing.T) {
	// §6.2: a user-tampered JMI skips policy on management requests.
	tampered := newEnv(t, envOpts{mode: AuthzCallout, tamper: true})
	bo := tampered.client(boDN)
	sam := tampered.client(samDN)
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sam.Cancel(contact); err != nil {
		t.Fatalf("expected the tampered JMI to skip authorization, got %v", err)
	}

	// Moving the PEP into the Gatekeeper closes the hole even with a
	// tampered JMI.
	hardened := newEnv(t, envOpts{mode: AuthzCallout, tamper: true, placement: PlacementGatekeeper})
	bo2 := hardened.client(boDN)
	sam2 := hardened.client(samDN)
	contact2, err := bo2.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sam2.Cancel(contact2); !IsAuthorizationDenied(err) {
		t.Errorf("gatekeeper PEP did not catch tampered JMI: %v", err)
	}
	// Authorized management still works through the Gatekeeper PEP.
	kate2 := hardened.client(kateDN)
	nfc, err := bo2.Submit(`&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(simduration=600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := kate2.Cancel(nfc); err != nil {
		t.Errorf("authorized cancel through gatekeeper PEP failed: %v", err)
	}
}

func TestDynamicAccounts(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzCallout, dynamic: true})
	// Sam has no grid-mapfile entry but presents a policy-conforming
	// request... which still needs a VO grant; give him one via the
	// shared policy? He has none, so expect authorization denial AFTER
	// account mapping succeeded (i.e. not no-local-account).
	sam := e.client(samDN)
	_, err := sam.Submit(boJob, "")
	if !IsAuthorizationDenied(err) {
		t.Fatalf("err = %v, want policy denial (account mapping should succeed)", err)
	}
	// Bo (mapped) is unaffected.
	bo := e.client(boDN)
	if _, err := bo.Submit(boJob, ""); err != nil {
		t.Fatalf("mapped user broken by dynamic accounts: %v", err)
	}
}

func TestAccountRequestAndRights(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	// Requesting an unlisted account is refused.
	if _, err := bo.Submit(boJob, "keahey"); err == nil {
		t.Errorf("mapping to another user's account permitted")
	}
	// Requesting the listed account works.
	if _, err := bo.Submit(boJob, "bliu"); err != nil {
		t.Errorf("explicit own account refused: %v", err)
	}
}

func TestBadRSLRejected(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	var pe *ProtoError
	if _, err := bo.Submit(`((`, ""); !errors.As(err, &pe) || pe.Code != CodeBadRSL {
		t.Errorf("syntax error: %v", err)
	}
	if _, err := bo.Submit(`&(count=2)`, ""); !errors.As(err, &pe) || pe.Code != CodeBadRSL {
		t.Errorf("missing executable: %v", err)
	}
	if _, err := bo.Submit(`&(executable=x)(count=frog)`, ""); !errors.As(err, &pe) || pe.Code != CodeBadRSL {
		t.Errorf("bad count: %v", err)
	}
}

func TestLimitedProxyRefused(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	limited, err := gsi.Delegate(e.creds[boDN], time.Hour, true)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(e.addr, limited, e.trust)
	defer c.Close()
	_, err = c.Submit(boJob, "")
	var pe *ProtoError
	if !errors.As(err, &pe) || pe.Code != CodeAuthentication {
		t.Errorf("limited proxy submit = %v, want authentication refusal", err)
	}
}

func TestUntrustedClientDropped(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	rogueCA, err := gsi.NewCA("/O=Rogue/CN=CA")
	if err != nil {
		t.Fatal(err)
	}
	cred, err := rogueCA.Issue(boDN, gsi.KindUser)
	if err != nil {
		t.Fatal(err)
	}
	rogueTrust := gsi.NewTrustStore(e.ca.Certificate(), rogueCA.Certificate())
	c := NewClient(e.addr, cred, rogueTrust)
	defer c.Close()
	if _, err := c.Submit(boJob, ""); err == nil {
		t.Errorf("rogue client served")
	}
}

func TestManageUnknownJob(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	err := bo.Cancel("gram://nowhere/job/999")
	var pe *ProtoError
	if !errors.As(err, &pe) || pe.Code != CodeNoSuchJob {
		t.Errorf("cancel unknown = %v", err)
	}
}

func TestJobLifecycleStates(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	contact, err := bo.Submit(`&(executable=test1)(count=2)(simduration=120)`, "")
	if err != nil {
		t.Fatal(err)
	}
	st, err := bo.Status(contact)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateActive {
		t.Fatalf("state = %s", st.State)
	}
	if err := bo.Signal(contact, SignalSuspend, ""); err != nil {
		t.Fatal(err)
	}
	if st, _ := bo.Status(contact); st.State != StateSuspended {
		t.Errorf("state after suspend = %s", st.State)
	}
	if err := bo.Signal(contact, SignalResume, ""); err != nil {
		t.Fatal(err)
	}
	e.cluster.Advance(3 * time.Minute)
	if st, _ := bo.Status(contact); st.State != StateDone {
		t.Errorf("state after completion = %s", st.State)
	}
	// Canceling a finished job is a state error.
	err = bo.Cancel(contact)
	var pe *ProtoError
	if !errors.As(err, &pe) || pe.Code != CodeJobState {
		t.Errorf("cancel done job = %v", err)
	}
	// Signals validate their arguments.
	contact2, err := bo.Submit(`&(executable=test1)(simduration=600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := bo.Signal(contact2, SignalPriority, "not-a-number"); err == nil {
		t.Errorf("bad priority accepted")
	}
	if err := bo.Signal(contact2, SignalPriority, "7"); err != nil {
		t.Errorf("priority change failed: %v", err)
	}
	if err := bo.Signal(contact2, "unknown-signal", ""); err == nil {
		t.Errorf("unknown signal accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzCallout})
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.client(boDN)
			contact, err := c.Submit(`&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)(simduration=60)`, "")
			if err != nil {
				errs <- err
				return
			}
			if _, err := c.Status(contact); err != nil {
				errs <- err
				return
			}
			errs <- c.Cancel(contact)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("concurrent client: %v", err)
		}
	}
	if got := e.gk.jobs.Len(); got != n {
		t.Errorf("jobs = %d, want %d", got, n)
	}
}
