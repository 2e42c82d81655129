package vo

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
	devDN     = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Dev One")
	analystDN = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Ana Lyst")
	adminDN   = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
)

func newTestVO(t *testing.T) *VO {
	t.Helper()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA")
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue("/O=Grid/CN=NFC VO", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	v := New("NFC", cred)
	if err := v.DefineJobtag(Jobtag{Name: "NFC", Description: "fusion runs", ManagerRole: RoleAdmin}); err != nil {
		t.Fatal(err)
	}
	if err := v.DefineJobtag(Jobtag{Name: "ADS", Description: "app dev + support", ManagerRole: RoleAdmin}); err != nil {
		t.Fatal(err)
	}
	members := []*Member{
		{Identity: devDN, Roles: []string{RoleDeveloper}, Jobtags: []string{"ADS"}},
		{Identity: analystDN, Roles: []string{RoleAnalyst}, Jobtags: []string{"NFC"}},
		{Identity: adminDN, Roles: []string{RoleAnalyst, RoleAdmin}, Jobtags: []string{"NFC", "ADS"}},
	}
	for _, m := range members {
		if err := v.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func TestMembership(t *testing.T) {
	v := newTestVO(t)
	m, ok := v.Member(devDN)
	if !ok || !m.HasRole(RoleDeveloper) || m.HasRole(RoleAdmin) {
		t.Errorf("member lookup wrong: %+v ok=%v", m, ok)
	}
	if len(v.Members()) != 3 {
		t.Errorf("Members = %d", len(v.Members()))
	}
	v.RemoveMember(devDN)
	if _, ok := v.Member(devDN); ok {
		t.Errorf("RemoveMember ineffective")
	}
	if err := v.AddMember(&Member{Identity: "bad"}); err == nil {
		t.Errorf("invalid identity accepted")
	}
}

func TestJobtagRegistry(t *testing.T) {
	v := newTestVO(t)
	if err := v.DefineJobtag(Jobtag{Name: "NFC"}); err == nil {
		t.Errorf("duplicate jobtag accepted")
	}
	if err := v.DefineJobtag(Jobtag{}); err == nil {
		t.Errorf("anonymous jobtag accepted")
	}
	if got := len(v.Jobtags()); got != 2 {
		t.Errorf("Jobtags = %d", got)
	}
	tag, ok := v.JobtagDef("NFC")
	if !ok || tag.ManagerRole != RoleAdmin {
		t.Errorf("JobtagDef = %+v, %v", tag, ok)
	}
}

func TestIssueAssertion(t *testing.T) {
	v := newTestVO(t)
	a, err := v.IssueAssertion(adminDN)
	if err != nil {
		t.Fatal(err)
	}
	if err := gsi.VerifyAssertion(a, v.Certificate(), adminDN, time.Now()); err != nil {
		t.Fatal(err)
	}
	if !a.HasRole(RoleAdmin) || !a.AllowsJobtag("NFC") || !a.AllowsJobtag("ADS") {
		t.Errorf("assertion contents wrong: %+v", a)
	}
	if _, err := v.IssueAssertion("/O=Grid/CN=Stranger"); err == nil {
		t.Errorf("assertion issued to non-member")
	}
}

func TestMembershipPDP(t *testing.T) {
	v := newTestVO(t)
	pdp := v.MembershipPDP()
	a, err := v.IssueAssertion(analystDN)
	if err != nil {
		t.Fatal(err)
	}
	start := func(tag string, asserts ...*gsi.Assertion) *core.Request {
		spec := rsl.NewSpec().Set("executable", "TRANSP")
		if tag != "" {
			spec.Set("jobtag", tag)
		}
		return &core.Request{Subject: analystDN, Action: policy.ActionStart, Spec: spec, Assertions: asserts}
	}
	if d := pdp.Authorize(context.Background(), start("NFC", a)); d.Effect != core.NotApplicable {
		t.Errorf("gate should abstain on success, got %v: %s", d.Effect, d.Reason)
	}
	if d := pdp.Authorize(context.Background(), start("NFC")); d.Effect != core.Deny {
		t.Errorf("missing assertion permitted")
	}
	if d := pdp.Authorize(context.Background(), start("ADS", a)); d.Effect != core.Deny {
		t.Errorf("unentitled jobtag permitted")
	}
	if d := pdp.Authorize(context.Background(), start("GHOST", a)); d.Effect != core.Deny {
		t.Errorf("undefined jobtag permitted")
	}
	// Management request: membership suffices for the gate (jobtag
	// entitlement is a submission-side rule; management rights come from
	// policy), so the gate abstains.
	mgmt := &core.Request{Subject: analystDN, Action: policy.ActionCancel, JobOwner: analystDN, Assertions: []*gsi.Assertion{a}}
	if d := pdp.Authorize(context.Background(), mgmt); d.Effect != core.NotApplicable {
		t.Errorf("management by member should pass the gate, got %v: %s", d.Effect, d.Reason)
	}
	// A lone gate never authorizes: combined with nothing granting, the
	// request is denied.
	combined := core.NewCombined(core.RequireAllPermit, pdp)
	if d := combined.Authorize(context.Background(), start("NFC", a)); d.Effect != core.Deny {
		t.Errorf("gate alone authorized a request: %v", d.Effect)
	}
}

func TestPolicyBuilder(t *testing.T) {
	v := newTestVO(t)
	b := NewPolicyBuilder(v)
	b.AnalystExecutables = []string{"TRANSP", "EFIT"}
	b.ServiceDirectory = "/sandbox/services"
	pol, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pol.Source != "VO:NFC" {
		t.Errorf("Source = %q", pol.Source)
	}

	eval := func(subject gsi.DN, action, rslText string, owner gsi.DN) bool {
		var spec *rsl.Spec
		if rslText != "" {
			s, err := rsl.ParseSpec(rslText)
			if err != nil {
				t.Fatal(err)
			}
			spec = s
		}
		return pol.Evaluate(&policy.Request{Subject: subject, Action: action, JobOwner: owner, Spec: spec}).Allowed
	}

	// Developers: dev tools only, small allocations.
	if !eval(devDN, policy.ActionStart, `&(executable=gcc)(jobtag=ADS)(count=2)(maxtime=10)`, "") {
		t.Errorf("developer compile denied")
	}
	if eval(devDN, policy.ActionStart, `&(executable=gcc)(jobtag=ADS)(count=16)`, "") {
		t.Errorf("developer large allocation allowed")
	}
	if eval(devDN, policy.ActionStart, `&(executable=TRANSP)(directory=/sandbox/services)(jobtag=ADS)`, "") {
		t.Errorf("developer may not run analysis services")
	}

	// Analysts: sanctioned services, any size.
	if !eval(analystDN, policy.ActionStart, `&(executable=TRANSP)(directory=/sandbox/services)(jobtag=NFC)(count=64)`, "") {
		t.Errorf("analyst service run denied")
	}
	if eval(analystDN, policy.ActionStart, `&(executable=bash)(directory=/sandbox/services)(jobtag=NFC)`, "") {
		t.Errorf("analyst arbitrary code allowed")
	}

	// Jobtag requirement applies to everyone.
	if eval(analystDN, policy.ActionStart, `&(executable=TRANSP)(directory=/sandbox/services)`, "") {
		t.Errorf("start without jobtag allowed")
	}

	// Admin may cancel jobs in managed groups; others may not.
	if !eval(adminDN, policy.ActionCancel, `&(executable=TRANSP)(jobtag=NFC)`, analystDN) {
		t.Errorf("admin cancel denied")
	}
	if eval(analystDN, policy.ActionCancel, `&(executable=gcc)(jobtag=ADS)`, devDN) {
		t.Errorf("analyst cancel of other's job allowed")
	}

	// Self-management works for everyone.
	if !eval(devDN, policy.ActionCancel, `&(executable=gcc)(jobtag=ADS)`, devDN) {
		t.Errorf("self cancel denied")
	}

	// The generated text is in the paper's language and round-trips.
	text := pol.Unparse()
	if !strings.Contains(text, "(jobtag!=NULL)") {
		t.Errorf("generated policy lacks jobtag requirement:\n%s", text)
	}
	if _, err := policy.ParseString(text, pol.Source); err != nil {
		t.Errorf("generated policy does not reparse: %v", err)
	}
}
