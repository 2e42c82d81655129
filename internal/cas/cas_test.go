package cas

import (
	"context"
	"strings"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

const (
	bo   = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu")
	kate = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
	out  = gsi.DN("/O=Elsewhere/CN=Outsider")
)

const communityPolicy = `
/O=Grid/O=Globus/OU=mcs.anl.gov: &(action = start)(jobtag != NULL)
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = test1)(jobtag = ADS)(count<4)
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey: &(action = start)(executable = TRANSP)(jobtag = NFC) &(action=cancel)(jobtag=NFC)
`

func newServer(t *testing.T) *Server {
	t.Helper()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue("/O=Grid/CN=NFC CAS", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.ParseString(communityPolicy, "VO:NFC")
	if err != nil {
		t.Fatal(err)
	}
	return NewServer("NFC", cred, pol)
}

func spec(t *testing.T, in string) *rsl.Spec {
	t.Helper()
	s, err := rsl.ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGrantEmbedsOnlyApplicableStatements(t *testing.T) {
	s := newServer(t)
	a, err := s.Grant(bo)
	if err != nil {
		t.Fatal(err)
	}
	if a.Holder != bo || a.VO != "NFC" {
		t.Errorf("assertion header wrong: %+v", a)
	}
	if !strings.Contains(a.Policy, "test1") {
		t.Errorf("bo's rights missing from embedded policy:\n%s", a.Policy)
	}
	if strings.Contains(a.Policy, "TRANSP") {
		t.Errorf("kate's rights leaked into bo's credential:\n%s", a.Policy)
	}
	// The group requirement travels with every member's credential.
	if !strings.Contains(a.Policy, "jobtag!=NULL") {
		t.Errorf("group requirement missing:\n%s", a.Policy)
	}
	if _, err := s.Grant(out); err == nil {
		t.Errorf("outsider received a credential")
	}
}

func TestPDPEnforcesEmbeddedPolicy(t *testing.T) {
	s := newServer(t)
	cred, err := s.Grant(bo)
	if err != nil {
		t.Fatal(err)
	}
	pdp := &PDP{Community: "NFC", Cert: s.Certificate()}

	ok := &core.Request{
		Subject: bo, Action: policy.ActionStart,
		Spec:       spec(t, `&(executable=test1)(jobtag=ADS)(count=2)`),
		Assertions: []*gsi.Assertion{cred},
	}
	if d := pdp.Authorize(context.Background(), ok); d.Effect != core.Permit {
		t.Errorf("conforming request denied: %s", d.Reason)
	}
	over := &core.Request{
		Subject: bo, Action: policy.ActionStart,
		Spec:       spec(t, `&(executable=test1)(jobtag=ADS)(count=16)`),
		Assertions: []*gsi.Assertion{cred},
	}
	if d := pdp.Authorize(context.Background(), over); d.Effect != core.Deny {
		t.Errorf("over-limit request permitted")
	}
	bare := &core.Request{Subject: bo, Action: policy.ActionStart, Spec: ok.Spec}
	if d := pdp.Authorize(context.Background(), bare); d.Effect != core.Deny {
		t.Errorf("request without credential permitted")
	}
}

func TestPDPRejectsStolenCredential(t *testing.T) {
	s := newServer(t)
	cred, err := s.Grant(kate)
	if err != nil {
		t.Fatal(err)
	}
	pdp := &PDP{Community: "NFC", Cert: s.Certificate()}
	req := &core.Request{
		Subject: bo, Action: policy.ActionStart,
		Spec:       spec(t, `&(executable=TRANSP)(jobtag=NFC)`),
		Assertions: []*gsi.Assertion{cred}, // kate's credential, bo's request
	}
	if d := pdp.Authorize(context.Background(), req); d.Effect != core.Deny {
		t.Errorf("stolen credential honored")
	}
}

func TestPDPRejectsExpiredCredential(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue("/O=Grid/CN=NFC CAS", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.ParseString(communityPolicy, "VO:NFC")
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-10 * time.Hour)
	s := NewServer("NFC", cred, pol, WithTTL(time.Hour), WithClock(func() time.Time { return past }))
	stale, err := s.Grant(bo)
	if err != nil {
		t.Fatal(err)
	}
	pdp := &PDP{Community: "NFC", Cert: s.Certificate()}
	req := &core.Request{
		Subject: bo, Action: policy.ActionStart,
		Spec:       spec(t, `&(executable=test1)(jobtag=ADS)(count=1)`),
		Assertions: []*gsi.Assertion{stale},
	}
	if d := pdp.Authorize(context.Background(), req); d.Effect != core.Deny {
		t.Errorf("expired credential honored")
	}
}

func TestPolicyUpdateTakesEffectOnNextGrant(t *testing.T) {
	s := newServer(t)
	before, err := s.Grant(bo)
	if err != nil {
		t.Fatal(err)
	}
	newPol, err := policy.ParseString(`
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu: &(action = start)(executable = test9)
`, "VO:NFC")
	if err != nil {
		t.Fatal(err)
	}
	s.SetPolicy(newPol)
	after, err := s.Grant(bo)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(after.Policy, "test1") || !strings.Contains(after.Policy, "test9") {
		t.Errorf("policy update not reflected:\n%s", after.Policy)
	}
	// Old (still unexpired) credentials retain the old rights — the CAS
	// revocation caveat.
	if !strings.Contains(before.Policy, "test1") {
		t.Errorf("earlier credential mutated")
	}
}

func TestRegisterDriver(t *testing.T) {
	s := newServer(t)
	reg := core.NewRegistry()
	RegisterDriver(reg, s)
	if err := reg.LoadConfigString(core.CalloutJobManager + " cas-enforcement"); err != nil {
		t.Fatal(err)
	}
	cred, err := s.Grant(bo)
	if err != nil {
		t.Fatal(err)
	}
	req := &core.Request{
		Subject: bo, Action: policy.ActionStart,
		Spec:       spec(t, `&(executable=test1)(jobtag=ADS)(count=1)`),
		Assertions: []*gsi.Assertion{cred},
	}
	if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
		t.Errorf("driver-configured CAS denied: %s", d.Reason)
	}
}
