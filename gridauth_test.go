package gridauth

import (
	"testing"
	"time"

	"gridauth/internal/gram"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/sandbox"
	"gridauth/internal/vo"
)

func TestFabricQuickstart(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	alice, err := fab.IssueUser("/O=Grid/CN=Alice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := fab.StartResource(ResourceConfig{
		Name: "cluster.example.org",
		CPUs: 8,
		Mode: ModeCallout,
		GridMap: map[gsi.DN][]string{
			alice.Identity(): {"alice"},
		},
		VOPolicy: `/O=Grid/CN=Alice: &(action = start)(executable = sim)(count<8) &(action = cancel information signal)(jobowner = self)`,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	client, err := res.Client(alice)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	contact, err := client.Submit(`&(executable=sim)(count=4)(simduration=60)`, "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := client.Status(contact)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != gram.StateActive {
		t.Errorf("state = %s", st.State)
	}
	if _, err := client.Submit(`&(executable=sim)(count=16)`, ""); !gram.IsAuthorizationDenied(err) {
		t.Errorf("over-limit submit = %v, want denial", err)
	}
	res.Cluster.Advance(2 * time.Minute)
	if st, _ := client.Status(contact); st.State != gram.StateDone {
		t.Errorf("state after advance = %s", st.State)
	}
}

func TestFabricWithVOAssertions(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	nfc, err := fab.NewVO("NFC", "/O=Grid/CN=NFC VO")
	if err != nil {
		t.Fatal(err)
	}
	if err := nfc.DefineJobtag(vo.Jobtag{Name: "NFC", ManagerRole: vo.RoleAdmin}); err != nil {
		t.Fatal(err)
	}
	kate, err := fab.IssueUser("/O=Grid/CN=Kate")
	if err != nil {
		t.Fatal(err)
	}
	if err := nfc.AddMember(&vo.Member{
		Identity: kate.Identity(),
		Roles:    []string{vo.RoleAnalyst},
		Jobtags:  []string{"NFC"},
	}); err != nil {
		t.Fatal(err)
	}
	assertion, err := nfc.IssueAssertion(kate.Identity())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fab.StartResource(ResourceConfig{
		Name: "fusion.anl.gov",
		Mode: ModeCallout,
		GridMap: map[gsi.DN][]string{
			kate.Identity(): {"keahey"},
		},
		VOPolicy: `/O=Grid/CN=Kate: &(action = start)(executable = TRANSP)(jobtag = NFC)`,
		VOs:      []*vo.VO{nfc},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	// Without the assertion the VO membership PDP denies.
	bare, err := res.Client(kate)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Submit(`&(executable=TRANSP)(jobtag=NFC)`, ""); !gram.IsAuthorizationDenied(err) {
		t.Errorf("submission without VO credential = %v, want denial", err)
	}

	withVO, err := res.Client(kate, assertion)
	if err != nil {
		t.Fatal(err)
	}
	defer withVO.Close()
	if _, err := withVO.Submit(`&(executable=TRANSP)(jobtag=NFC)`, ""); err != nil {
		t.Errorf("submission with VO credential failed: %v", err)
	}
}

func TestResourceConfigValidation(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fab.StartResource(ResourceConfig{}); err == nil {
		t.Errorf("nameless resource accepted")
	}
	if _, err := fab.StartResource(ResourceConfig{Name: "x", Mode: ModeCallout}); err == nil {
		t.Errorf("callout mode without policy accepted")
	}
	if _, err := fab.StartResource(ResourceConfig{Name: "x", VOPolicy: "garbage("}); err == nil {
		t.Errorf("bad policy accepted")
	}
}

func TestSandboxOnResource(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	alice, err := fab.IssueUser("/O=Grid/CN=Alice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := fab.StartResource(ResourceConfig{
		Name:    "sandboxed.example.org",
		Mode:    ModeLegacy,
		Sandbox: true,
		GridMap: map[gsi.DN][]string{alice.Identity(): {"alice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Monitor == nil {
		t.Fatalf("sandbox monitor not attached")
	}
	client, err := res.Client(alice)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	contact, err := client.Submit(`&(executable=hog)(count=2)(simduration=3600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	jmi, ok := res.Gatekeeper.Job(contact)
	if !ok {
		t.Fatal("no JMI")
	}
	res.Monitor.Attach(jmi.LRMJobID(), sandbox.Limits{MaxCPUSeconds: 60})
	res.Cluster.Advance(2 * time.Minute)
	if vs := res.Monitor.Poll(); len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if st, _ := client.Status(contact); st.State != gram.StateCanceled {
		t.Errorf("state = %s, want CANCELED by sandbox", st.State)
	}
}

// Every policy version installed into a bound store — the initial one
// and every swap — is statically analyzed, with findings counted into
// policy_findings_total.
func TestPolicyStoreSwapCountsFindings(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	store := policy.NewStore(policy.MustParse(
		`/O=Grid/CN=Alice: &(action = start)(executable = sim)`, "VO"))
	res, err := fab.StartResource(ResourceConfig{
		Name:         "cluster.example.org",
		Mode:         ModeCallout,
		PolicyStores: []*policy.Store{store},
		Metrics:      m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	if got := m.PolicyFindings.Load(); got != 0 {
		t.Fatalf("clean initial policy counted %d findings", got)
	}
	// Swap in a policy whose second grant is shadowed by its first: the
	// hook must analyze the new snapshot synchronously.
	store.Replace(policy.MustParse(`
/O=Grid/CN=Alice:
  &(action = start)(executable = sim)
  &(action = start)(executable = sim)(count <= 4)
`, store.Current().Source))
	if got := m.PolicyFindings.Load(); got != 1 {
		t.Fatalf("policy_findings_total = %d after shadowed swap, want 1", got)
	}
	// A clean swap adds nothing further.
	store.Replace(policy.MustParse(`/O=Grid/CN=Alice: &(action = start)(executable = sim)`, store.Current().Source))
	if got := m.PolicyFindings.Load(); got != 1 {
		t.Fatalf("policy_findings_total = %d after clean swap, want 1", got)
	}
}
