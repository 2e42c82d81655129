package akenti

import (
	"context"
	"errors"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

const (
	kate     = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
	bo       = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu")
	resource = "gram:fusion.anl.gov"
)

type fixture struct {
	engine  *Engine
	voCred  *gsi.Credential
	ownCred *gsi.Credential
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	voCred, err := ca.Issue("/O=Grid/CN=NFC VO", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	ownCred, err := ca.Issue("/O=Grid/CN=ANL Ops", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.TrustStakeholder(voCred.Leaf())
	e.TrustStakeholder(ownCred.Leaf())
	e.TrustAttributeIssuer(voCred.Leaf())
	return &fixture{engine: e, voCred: voCred, ownCred: ownCred}
}

func (f *fixture) addCondition(t *testing.T, signer *gsi.Credential, uc *UseCondition) {
	t.Helper()
	uc.Resource = resource
	if uc.NotBefore.IsZero() {
		uc.NotBefore = time.Now().Add(-time.Minute)
		uc.NotAfter = time.Now().Add(time.Hour)
	}
	if err := SignUseCondition(uc, signer); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.AddUseCondition(uc); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) grantAttr(t *testing.T, subject gsi.DN, attr, value string) {
	t.Helper()
	ac := &AttributeCertificate{
		Subject: subject, Attribute: attr, Value: value,
		NotBefore: time.Now().Add(-time.Minute),
		NotAfter:  time.Now().Add(time.Hour),
	}
	if err := SignAttribute(ac, f.voCred); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.StoreAttribute(ac); err != nil {
		t.Fatal(err)
	}
}

func TestStakeholderConjunction(t *testing.T) {
	f := newFixture(t)
	// VO grants analysts; resource owner grants group=fusion.
	f.addCondition(t, f.voCred, &UseCondition{
		Actions:      []string{policy.ActionStart},
		Requirements: []Requirement{{Attribute: "role", Value: "analyst"}},
	})
	f.addCondition(t, f.ownCred, &UseCondition{
		Actions:      []string{policy.ActionStart},
		Requirements: []Requirement{{Attribute: "group", Value: "fusion"}},
	})
	f.grantAttr(t, kate, "role", "analyst")
	f.grantAttr(t, kate, "group", "fusion")
	f.grantAttr(t, bo, "role", "analyst") // bo lacks the owner's attribute

	if ok, reason := f.engine.Authorize(resource, kate, policy.ActionStart, nil); !ok {
		t.Errorf("kate denied: %s", reason)
	}
	if ok, _ := f.engine.Authorize(resource, bo, policy.ActionStart, nil); ok {
		t.Errorf("bo permitted without all stakeholders granting")
	}
}

func TestConstraintCarriesPaperPolicy(t *testing.T) {
	f := newFixture(t)
	// The paper's Bo Liu rule expressed as an Akenti use condition.
	f.addCondition(t, f.voCred, &UseCondition{
		Actions:      []string{policy.ActionStart},
		Requirements: []Requirement{{Attribute: "member", Value: "NFC"}},
		Constraint:   "(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count<4)",
	})
	f.grantAttr(t, bo, "member", "NFC")

	ok1, err := rsl.ParseSpec(`&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)`)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := f.engine.Authorize(resource, bo, policy.ActionStart, ok1); !ok {
		t.Errorf("conforming job denied: %s", reason)
	}
	bad, err := rsl.ParseSpec(`&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=8)`)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := f.engine.Authorize(resource, bo, policy.ActionStart, bad); ok {
		t.Errorf("count limit not enforced through constraint")
	}
}

func TestUnknownResourceDenies(t *testing.T) {
	f := newFixture(t)
	if ok, _ := f.engine.Authorize("gram:elsewhere", kate, policy.ActionStart, nil); ok {
		t.Errorf("resource without conditions permitted")
	}
}

func TestActionCoverage(t *testing.T) {
	f := newFixture(t)
	f.addCondition(t, f.voCred, &UseCondition{
		Actions:      []string{policy.ActionCancel, policy.ActionSignal},
		Requirements: []Requirement{{Attribute: "role", Value: "admin"}},
	})
	f.grantAttr(t, kate, "role", "admin")
	if ok, _ := f.engine.Authorize(resource, kate, policy.ActionCancel, nil); !ok {
		t.Errorf("covered action denied")
	}
	if ok, _ := f.engine.Authorize(resource, kate, policy.ActionStart, nil); ok {
		t.Errorf("uncovered action permitted")
	}
}

func TestExpiredArtifactsRejected(t *testing.T) {
	f := newFixture(t)
	f.addCondition(t, f.voCred, &UseCondition{
		Actions:      []string{policy.ActionStart},
		Requirements: []Requirement{{Attribute: "role", Value: "analyst"}},
	})
	// Expired attribute certificate.
	ac := &AttributeCertificate{
		Subject: kate, Attribute: "role", Value: "analyst",
		NotBefore: time.Now().Add(-2 * time.Hour),
		NotAfter:  time.Now().Add(-time.Hour),
	}
	if err := SignAttribute(ac, f.voCred); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.StoreAttribute(ac); err != nil {
		t.Fatal(err)
	}
	if ok, _ := f.engine.Authorize(resource, kate, policy.ActionStart, nil); ok {
		t.Errorf("expired attribute honored")
	}
}

func TestUntrustedIssuersRejected(t *testing.T) {
	f := newFixture(t)
	rogueCA, err := gsi.NewCA("/O=Rogue/CN=CA")
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := rogueCA.Issue("/O=Rogue/CN=Issuer", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	uc := &UseCondition{
		Resource: resource, Actions: []string{policy.ActionStart},
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignUseCondition(uc, rogue); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.AddUseCondition(uc); !errors.Is(err, ErrUntrustedIssuer) {
		t.Errorf("rogue use condition accepted: %v", err)
	}
	ac := &AttributeCertificate{
		Subject: kate, Attribute: "role", Value: "admin",
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignAttribute(ac, rogue); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.StoreAttribute(ac); !errors.Is(err, ErrUntrustedIssuer) {
		t.Errorf("rogue attribute accepted: %v", err)
	}
}

func TestTamperedSignaturesRejected(t *testing.T) {
	f := newFixture(t)
	uc := &UseCondition{
		Resource: resource, Actions: []string{policy.ActionStart},
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignUseCondition(uc, f.voCred); err != nil {
		t.Fatal(err)
	}
	uc.Actions = append(uc.Actions, policy.ActionCancel) // tamper
	if err := f.engine.AddUseCondition(uc); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered use condition accepted: %v", err)
	}
}

func TestRequirementIssuerRestriction(t *testing.T) {
	f := newFixture(t)
	otherIssuer := f.ownCred
	f.engine.TrustAttributeIssuer(otherIssuer.Leaf())
	f.addCondition(t, f.voCred, &UseCondition{
		Actions: []string{policy.ActionStart},
		Requirements: []Requirement{{
			Attribute: "role", Value: "analyst",
			Issuers: []gsi.DN{otherIssuer.Subject()},
		}},
	})
	// Attribute from the VO issuer does not satisfy an owner-restricted
	// requirement.
	f.grantAttr(t, kate, "role", "analyst")
	if ok, _ := f.engine.Authorize(resource, kate, policy.ActionStart, nil); ok {
		t.Errorf("issuer restriction ignored")
	}
	ac := &AttributeCertificate{
		Subject: kate, Attribute: "role", Value: "analyst",
		NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignAttribute(ac, otherIssuer); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.StoreAttribute(ac); err != nil {
		t.Fatal(err)
	}
	if ok, reason := f.engine.Authorize(resource, kate, policy.ActionStart, nil); !ok {
		t.Errorf("restricted-issuer attribute not honored: %s", reason)
	}
}

func TestPDPAndDriver(t *testing.T) {
	f := newFixture(t)
	f.addCondition(t, f.voCred, &UseCondition{
		Actions:      []string{policy.ActionStart},
		Requirements: []Requirement{{Attribute: "role", Value: "analyst"}},
	})
	f.grantAttr(t, kate, "role", "analyst")

	reg := core.NewRegistry()
	RegisterDriver(reg, f.engine)
	if err := reg.LoadConfigString(core.CalloutJobManager + " akenti resource=" + resource); err != nil {
		t.Fatal(err)
	}
	req := &core.Request{Subject: kate, Action: policy.ActionStart}
	if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
		t.Errorf("driver-configured akenti denied: %s", d.Reason)
	}
	if err := reg.LoadConfigString(core.CalloutJobManager + " akenti"); err == nil {
		t.Errorf("driver without resource accepted")
	}
}

func TestBadConstraintRejectedAtInstall(t *testing.T) {
	f := newFixture(t)
	uc := &UseCondition{
		Resource: resource, Actions: []string{policy.ActionStart},
		Constraint: "(((",
		NotBefore:  time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour),
	}
	if err := SignUseCondition(uc, f.voCred); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.AddUseCondition(uc); err == nil {
		t.Errorf("malformed constraint accepted")
	}
}
