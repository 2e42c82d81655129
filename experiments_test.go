package gridauth

// Behavioural reproductions of the paper's evaluation artifacts (see
// DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
// outcomes):
//
//	E1/E2 (Figures 1 and 2)  — internal/gram: TestFig1BaselineTrace,
//	                           TestFig2ExtendedTrace
//	E3 (Figure 3)            — internal/policy: TestFig3Decisions
//	E4 (§4.3 shortcomings)   — TestShortcomingsMatrix (here)
//	E5 (§5.2 callouts)       — TestCalloutConfiguration (here)
//	E6 (§6.1 enforcement)    — TestGatewayEnforcementGap (here)
//	E7 (§6.2 trust model)    — internal/gram: TestJMTrustModel
//	E8 (§2 use case)         — TestFusionCollaboratoryScenario (here)

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridauth/internal/akenti"
	"gridauth/internal/cas"
	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
	"gridauth/internal/sandbox"
	"gridauth/internal/vo"
	"gridauth/internal/workload"
)

// fixtures shared by the experiments.
type expEnv struct {
	fab   *Fabric
	vo    *vo.VO
	dev   *gsi.Credential
	ana   *gsi.Credential
	adm   *gsi.Credential
	users []workload.User
}

func newExpEnv(t *testing.T) *expEnv {
	t.Helper()
	fab, err := NewFabric("/O=Grid/CN=Experiment CA")
	if err != nil {
		t.Fatal(err)
	}
	users := workload.NFCUsers(1, 1, 1)
	nfc, err := fab.NewVO("NFC", "/O=Grid/CN=NFC VO")
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"NFC", "ADS"} {
		if err := nfc.DefineJobtag(vo.Jobtag{Name: tag, ManagerRole: vo.RoleAdmin}); err != nil {
			t.Fatal(err)
		}
	}
	creds := make([]*gsi.Credential, 3)
	tags := [][]string{{"ADS"}, {"NFC"}, {"NFC", "ADS"}}
	roles := [][]string{{vo.RoleDeveloper}, {vo.RoleAnalyst}, {vo.RoleAnalyst, vo.RoleAdmin}}
	for i, u := range users {
		c, err := fab.IssueUser(string(u.DN))
		if err != nil {
			t.Fatal(err)
		}
		creds[i] = c
		if err := nfc.AddMember(&vo.Member{Identity: u.DN, Roles: roles[i], Jobtags: tags[i]}); err != nil {
			t.Fatal(err)
		}
	}
	return &expEnv{fab: fab, vo: nfc, dev: creds[0], ana: creds[1], adm: creds[2], users: users}
}

func (e *expEnv) policies(t *testing.T) (voText, localText string) {
	t.Helper()
	pol, err := workload.NFCPolicy(e.users)
	if err != nil {
		t.Fatal(err)
	}
	local, err := workload.NFCLocalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	return pol.Unparse(), local.Unparse()
}

func (e *expEnv) gridMap() map[gsi.DN][]string {
	return map[gsi.DN][]string{
		e.dev.Identity(): {"dev1"},
		e.ana.Identity(): {"ana1"},
		e.adm.Identity(): {"adm1"},
	}
}

// TestShortcomingsMatrix (E4) demonstrates each §4.3 shortcoming on the
// baseline and its fate under the extension.
func TestShortcomingsMatrix(t *testing.T) {
	e := newExpEnv(t)
	voText, localText := e.policies(t)

	legacy, err := e.fab.StartResource(ResourceConfig{
		Name: "legacy.anl.gov", Mode: ModeLegacy, GridMap: e.gridMap(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	extended, err := e.fab.StartResource(ResourceConfig{
		Name: "extended.anl.gov", Mode: ModeCallout, GridMap: e.gridMap(),
		VOPolicy: voText, LocalPolicy: localText,
		DynamicAccounts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer extended.Close()

	devLegacy := mustClient(t, legacy, e.dev)
	devExt := mustClient(t, extended, e.dev)
	anaLegacy := mustClient(t, legacy, e.ana)
	admLegacy := mustClient(t, legacy, e.adm)
	admExt := mustClient(t, extended, e.adm)

	t.Run("1 startup authorization is coarse-grained", func(t *testing.T) {
		// Baseline: having an account is the whole check — a developer
		// may run anything at any scale.
		if _, err := devLegacy.Submit(`&(executable=arbitrary-binary)(count=16)(simduration=60)`, ""); err != nil {
			t.Errorf("baseline unexpectedly fine-grained: %v", err)
		}
		// Extension: the same request is denied by policy.
		if _, err := devExt.Submit(`&(executable=arbitrary-binary)(count=16)(jobtag=ADS)`, ""); !gram.IsAuthorizationDenied(err) {
			t.Errorf("extension did not constrain startup: %v", err)
		}
	})

	t.Run("2 management authorization is static initiator-only", func(t *testing.T) {
		contact, err := anaLegacy.Submit(`&(executable=TRANSP)(simduration=600)`, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := admLegacy.Cancel(contact); !gram.IsAuthorizationDenied(err) {
			t.Errorf("baseline allowed non-initiator management: %v", err)
		}
		// Extension: admin manages via the jobtag group.
		anaExt := mustClient(t, extended, e.ana)
		c2, err := anaExt.Submit(`&(executable=TRANSP)(directory=/sandbox/services)(jobtag=NFC)(count=4)(simduration=600)`, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := admExt.Cancel(c2); err != nil {
			t.Errorf("extension denied VO-wide management: %v", err)
		}
	})

	t.Run("3 jobs as managed resources need dynamic grouping", func(t *testing.T) {
		// A job submitted WITHOUT the VO jobtag is outside VO management
		// (the user may have a non-VO allocation): the extension's
		// policy requires jobtags for VO members but admins cannot touch
		// jobs in other groups.
		anaExt := mustClient(t, extended, e.ana)
		c, err := anaExt.Submit(`&(executable=TRANSP)(directory=/sandbox/services)(jobtag=NFC)(count=1)(simduration=600)`, "")
		if err != nil {
			t.Fatal(err)
		}
		st, err := admExt.Status(c)
		if err != nil {
			t.Fatalf("admin status on NFC job: %v", err)
		}
		if st.Owner != e.ana.Identity() {
			t.Errorf("owner = %s", st.Owner)
		}
	})

	t.Run("4 enforcement tied to account not request", func(t *testing.T) {
		// Extension with dynamic accounts: rights configured from the
		// request (rightsFromSpec), demonstrated by the dynamic lease
		// carrying the request's own limits.
		stranger, err := e.fab.IssueUser("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Analyst 999")
		if err != nil {
			t.Fatal(err)
		}
		// No grid-mapfile entry: dynamic account is leased; policy then
		// denies (no grant for this stranger) — but the account mapping
		// itself succeeded, which is the point.
		c := mustClient(t, extended, stranger)
		_, err = c.Submit(`&(executable=TRANSP)(directory=/sandbox/services)(jobtag=NFC)(count=2)`, "")
		if !gram.IsAuthorizationDenied(err) {
			t.Errorf("want policy denial after dynamic mapping, got %v", err)
		}
		if _, ok := extended.Accounts.LeaseFor(stranger.Identity()); !ok {
			t.Errorf("no dynamic account was leased")
		}
	})

	t.Run("5 account must pre-exist", func(t *testing.T) {
		stranger, err := e.fab.IssueUser("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Analyst 998")
		if err != nil {
			t.Fatal(err)
		}
		c := mustClient(t, legacy, stranger)
		_, err = c.Submit(`&(executable=TRANSP)`, "")
		var pe *gram.ProtoError
		if !asProtoError(err, &pe) || pe.Code != gram.CodeNoLocalAccount {
			t.Errorf("baseline should refuse unmapped users: %v", err)
		}
	})
}

// TestCalloutConfiguration (E5) exercises the runtime-configurable
// callout mechanism end to end: a configuration file binding three
// drivers — plaintext policy, Akenti and CAS — plus misconfiguration
// error paths.
func TestCalloutConfiguration(t *testing.T) {
	e := newExpEnv(t)
	voText, _ := e.policies(t)

	// Akenti engine with a use condition for NFC members.
	akEngine := akenti.NewEngine()
	stakeholder, err := e.fab.IssueService("/O=Grid/CN=ANL Stakeholder")
	if err != nil {
		t.Fatal(err)
	}
	akEngine.TrustStakeholder(stakeholder.Leaf())
	akEngine.TrustAttributeIssuer(stakeholder.Leaf())
	uc := &akenti.UseCondition{
		Resource:     "gram:fusion.anl.gov",
		Actions:      []string{policy.ActionStart, policy.ActionCancel, policy.ActionInformation, policy.ActionSignal},
		Requirements: []akenti.Requirement{{Attribute: "member", Value: "NFC"}},
		NotBefore:    time.Now().Add(-time.Minute),
		NotAfter:     time.Now().Add(time.Hour),
	}
	if err := akenti.SignUseCondition(uc, stakeholder); err != nil {
		t.Fatal(err)
	}
	if err := akEngine.AddUseCondition(uc); err != nil {
		t.Fatal(err)
	}
	for _, u := range e.users {
		ac := &akenti.AttributeCertificate{
			Subject: u.DN, Attribute: "member", Value: "NFC",
			NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
		}
		if err := akenti.SignAttribute(ac, stakeholder); err != nil {
			t.Fatal(err)
		}
		if err := akEngine.StoreAttribute(ac); err != nil {
			t.Fatal(err)
		}
	}

	// CAS server embedding the community policy.
	casCred, err := e.fab.IssueService("/O=Grid/CN=NFC CAS")
	if err != nil {
		t.Fatal(err)
	}
	communityPol, err := policy.ParseString(voText, "VO:NFC")
	if err != nil {
		t.Fatal(err)
	}
	casServer := cas.NewServer("NFC", casCred, communityPol)

	// Configuration file binding all three drivers to the JM callout.
	dir := t.TempDir()
	polPath := filepath.Join(dir, "vo.policy")
	if err := os.WriteFile(polPath, []byte(voText), 0o600); err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	core.RegisterBuiltinDrivers(reg)
	akenti.RegisterDriver(reg, akEngine)
	cas.RegisterDriver(reg, casServer)
	cfg := strings.Join([]string{
		core.CalloutJobManager + " plainfile path=" + polPath + " source=VO:NFC",
		core.CalloutJobManager + " akenti resource=gram:fusion.anl.gov",
		core.CalloutJobManager + " cas-enforcement",
	}, "\n")
	if err := reg.LoadConfig(strings.NewReader(cfg)); err != nil {
		t.Fatal(err)
	}

	// All three PDPs must permit (RequireAllPermit): an analyst with a
	// CAS credential and the Akenti attribute starting a sanctioned job.
	casGrant, err := casServer.Grant(e.ana.Identity())
	if err != nil {
		t.Fatal(err)
	}
	req := &core.Request{
		Subject:    e.ana.Identity(),
		Assertions: []*gsi.Assertion{casGrant},
		Action:     policy.ActionStart,
		Spec:       mustSpec(t, `&(executable=TRANSP)(directory=/sandbox/services)(jobtag=NFC)(count=4)`),
	}
	if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
		t.Fatalf("three-source permit failed: %s / %s", d.Source, d.Reason)
	}
	// Remove the CAS credential: the CAS PDP denies and the combination
	// denies.
	req.Assertions = nil
	if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Deny {
		t.Errorf("missing CAS credential not fatal: %v", d.Effect)
	}

	// Misconfiguration paths.
	bad := []string{
		core.CalloutJobManager + " akenti",               // missing resource
		core.CalloutJobManager + " plainfile path=/nope", // unreadable policy
		core.CalloutJobManager + " no-such-driver",
	}
	for _, line := range bad {
		if err := reg.LoadConfig(strings.NewReader(line)); err == nil {
			t.Errorf("misconfiguration %q accepted", line)
		}
	}
	// An unconfigured callout type fails closed as a SYSTEM failure.
	if d := reg.InvokeContext(context.Background(), "unconfigured-type", req); d.Effect != core.Error {
		t.Errorf("unconfigured callout = %v, want Error", d.Effect)
	}
}

// TestGatewayEnforcementGap (E6) demonstrates §6.1: gateway authorization
// admits a job whose runtime behaviour exceeds policy; only continuous
// enforcement (sandbox) catches it.
func TestGatewayEnforcementGap(t *testing.T) {
	e := newExpEnv(t)
	voText, localText := e.policies(t)

	run := func(t *testing.T, useSandbox bool) (jobState gram.JobState, cpuSeconds float64, violations int) {
		t.Helper()
		res, err := e.fab.StartResource(ResourceConfig{
			Name: "gap.anl.gov", Mode: ModeCallout, GridMap: e.gridMap(),
			VOPolicy: voText, LocalPolicy: localText,
			Sandbox: useSandbox,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		dev := mustClient(t, res, e.dev)
		// The developer's policy caps maxtime<=30 minutes; the gateway
		// checks the DECLARED maxtime. The job declares 30 but would run
		// for 4 hours of cpu time if nothing stops it (the declared
		// maxtime is what the scheduler enforces; imagine a site whose
		// LRM ignores maxtime — simulate by omitting it after admission).
		contact, err := dev.Submit(`&(executable=test1)(jobtag=ADS)(count=2)(simduration=14400)`, "")
		if err != nil {
			t.Fatal(err)
		}
		jmi, _ := res.Gatekeeper.Job(contact)
		if useSandbox {
			// VO intent: developers consume at most 600 cpu-seconds.
			res.Monitor.Attach(jmi.LRMJobID(), sandbox.Limits{MaxCPUSeconds: 600})
		}
		for i := 0; i < 8; i++ {
			res.Cluster.Advance(30 * time.Minute)
			if useSandbox {
				res.Monitor.Poll()
			}
		}
		job, err := res.Cluster.Lookup(jmi.LRMJobID())
		if err != nil {
			t.Fatal(err)
		}
		st, _ := jmi.State()
		nViol := 0
		if useSandbox {
			nViol = len(res.Monitor.Violations())
		}
		return st, job.CPUSeconds, nViol
	}

	t.Run("gateway only", func(t *testing.T) {
		state, cpu, _ := run(t, false)
		if state != gram.StateDone {
			t.Fatalf("state = %s", state)
		}
		if cpu < 28000 {
			t.Fatalf("cpu = %v; expected the job to overrun unchecked", cpu)
		}
	})
	t.Run("with sandbox", func(t *testing.T) {
		state, cpu, viol := run(t, true)
		if state != gram.StateCanceled {
			t.Fatalf("state = %s, want CANCELED", state)
		}
		if viol == 0 {
			t.Fatalf("no violation recorded")
		}
		if cpu > 4000 {
			t.Fatalf("cpu = %v; sandbox stopped the job too late", cpu)
		}
	})
}

// TestFusionCollaboratoryScenario (E8) runs the §2 use case end to end:
// two member classes with different rights, and a VO administrator
// preempting a long-running job for a short-notice high-priority run.
func TestFusionCollaboratoryScenario(t *testing.T) {
	e := newExpEnv(t)
	voText, localText := e.policies(t)
	res, err := e.fab.StartResource(ResourceConfig{
		Name: "fusion.anl.gov", Mode: ModeCallout, CPUs: 8,
		GridMap: e.gridMap(), VOPolicy: voText, LocalPolicy: localText,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	dev := mustClient(t, res, e.dev)
	ana := mustClient(t, res, e.ana)
	adm := mustClient(t, res, e.adm)

	// Developers run small tool jobs.
	devJob, err := dev.Submit(`&(executable=gcc)(jobtag=ADS)(count=2)(maxtime=30)(simduration=36000)`, "")
	if err != nil {
		t.Fatalf("developer job: %v", err)
	}
	// ... but not large ones.
	if _, err := dev.Submit(`&(executable=gcc)(jobtag=ADS)(count=8)(maxtime=10)`, ""); !gram.IsAuthorizationDenied(err) {
		t.Errorf("developer large job = %v", err)
	}
	// Analysts run big sanctioned services.
	longRun, err := ana.Submit(`&(executable=TRANSP)(directory=/sandbox/services)(jobtag=NFC)(count=6)(simduration=86400)`, "")
	if err != nil {
		t.Fatalf("analyst job: %v", err)
	}
	res.Cluster.Advance(time.Hour)

	// A funding-agency demo needs the machine NOW: the admin suspends
	// the analyst's long-running job (which they did not start)...
	if err := adm.Signal(longRun, gram.SignalSuspend, ""); err != nil {
		t.Fatalf("admin suspend: %v", err)
	}
	// ...runs the high-priority demo...
	demo, err := adm.Submit(`&(executable=TRANSP)(directory=/sandbox/services)(jobtag=NFC)(count=6)(priority=10)(simduration=1800)`, "")
	if err != nil {
		t.Fatalf("demo job: %v", err)
	}
	res.Cluster.Advance(31 * time.Minute)
	if st, _ := adm.Status(demo); st.State != gram.StateDone {
		t.Errorf("demo state = %s", st.State)
	}
	// ...and resumes the long job afterwards.
	if err := adm.Signal(longRun, gram.SignalResume, ""); err != nil {
		t.Fatalf("admin resume: %v", err)
	}
	if st, _ := ana.Status(longRun); st.State != gram.StateActive && st.State != gram.StatePending {
		t.Errorf("long job state = %s", st.State)
	}
	// The analyst cannot preempt a developer's ADS job (not their
	// management group); the admin manages ADS too. Use a fresh dev job
	// so earlier clock advances have not finished it.
	devJob2, err := dev.Submit(`&(executable=make)(jobtag=ADS)(count=1)(maxtime=30)(simduration=1200)`, "")
	if err != nil {
		t.Fatalf("second developer job: %v", err)
	}
	if err := ana.Cancel(devJob2); !gram.IsAuthorizationDenied(err) {
		t.Errorf("analyst canceled a developer job: %v", err)
	}
	if err := adm.Cancel(devJob2); err != nil {
		t.Errorf("admin cancel of developer job: %v", err)
	}
	_ = devJob
}

// --- helpers ---

func mustClient(t *testing.T, r *Resource, cred *gsi.Credential) *gram.Client {
	t.Helper()
	c, err := r.Client(cred)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func mustSpec(t *testing.T, text string) *rsl.Spec {
	t.Helper()
	s, err := rsl.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// asProtoError is errors.As specialized for GRAM protocol errors.
func asProtoError(err error, target **gram.ProtoError) bool {
	return errors.As(err, target)
}
