package gridauth

// Cross-subsystem integration tests wiring the extension packages
// (allocation, audit) into a live TCP resource through the facade.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gridauth/internal/allocation"
	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/gsi"
	"gridauth/internal/policy"
)

// TestVOAllocationOnResource demonstrates the §2 split end to end: the
// provider grants the VO a coarse CPU-second budget; the VO's fine-grain
// policy splits it among members; once the VO as a whole exhausts the
// budget, further startups are refused no matter what the VO policy
// says.
func TestVOAllocationOnResource(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Integration CA")
	if err != nil {
		t.Fatal(err)
	}
	kate, err := fab.IssueUser("/O=Grid/CN=Kate")
	if err != nil {
		t.Fatal(err)
	}

	tracker := allocation.NewTracker()
	tracker.SetGrant(allocation.Grant{VO: "NFC", CPUSeconds: 7200}) // 2 cpu-hours
	tracker.Enroll(kate.Identity(), "NFC")

	res, err := fab.StartResource(ResourceConfig{
		Name: "alloc.anl.gov",
		Mode: ModeCallout,
		GridMap: map[gsi.DN][]string{
			kate.Identity(): {"keahey"},
		},
		VOPolicy:   `/O=Grid/CN=Kate: &(action = start)(executable = TRANSP)(maxtime != NULL) &(action = cancel information signal)(jobowner = self)`,
		Allocation: tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	client, err := res.Client(kate)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Two 1-cpu-hour jobs fit the grant exactly.
	for i := 0; i < 2; i++ {
		if _, err := client.Submit(`&(executable=TRANSP)(count=2)(maxtime=30)(simduration=600)`, ""); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	// The third exceeds the VO's budget: denied by the allocation PDP,
	// not by VO policy.
	_, err = client.Submit(`&(executable=TRANSP)(count=2)(maxtime=30)`, "")
	if !gram.IsAuthorizationDenied(err) {
		t.Fatalf("over-budget submit = %v", err)
	}
	if !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("denial does not name the allocation: %v", err)
	}

	// When jobs finish under their worst case, the difference returns to
	// the budget and admission resumes.
	res.Cluster.Advance(11 * time.Minute)
	u, err := tracker.UsageOf("NFC")
	if err != nil {
		t.Fatal(err)
	}
	if u.Reserved != 0 {
		t.Fatalf("reservations not committed: %+v", u)
	}
	if u.Used != 2*2*600 { // two jobs × 2 cpus × 600 s
		t.Errorf("used = %v", u.Used)
	}
	if _, err := client.Submit(`&(executable=TRANSP)(count=1)(maxtime=30)(simduration=60)`, ""); err != nil {
		t.Errorf("post-release submit: %v", err)
	}
}

// TestAllocationRefusesDecisionCache: a resource refuses an "options
// cache=on" line, naming the removed key, and the line takes no effect.
// Every request reaches the live chain, so each identical submit
// reaches the allocation PDP and reserves its own worst case.
func TestAllocationRefusesDecisionCache(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Integration CA")
	if err != nil {
		t.Fatal(err)
	}
	kate, err := fab.IssueUser("/O=Grid/CN=Kate")
	if err != nil {
		t.Fatal(err)
	}
	tracker := allocation.NewTracker()
	tracker.SetGrant(allocation.Grant{VO: "NFC", CPUSeconds: 1e6})
	tracker.Enroll(kate.Identity(), "NFC")
	res, err := fab.StartResource(ResourceConfig{
		Name:       "alloc.anl.gov",
		Mode:       ModeCallout,
		GridMap:    map[gsi.DN][]string{kate.Identity(): {"keahey"}},
		VOPolicy:   `/O=Grid/CN=Kate: &(action = start)(executable = TRANSP)(maxtime != NULL)`,
		Allocation: tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	err = res.Registry.LoadConfigString(core.CalloutJobManager + " options cache=on")
	var ce *core.ConfigError
	if !errors.As(err, &ce) || ce.Line != 1 || !strings.Contains(ce.Msg, `"cache"`) || !strings.Contains(ce.Msg, "removed") {
		t.Fatalf("options cache=on: err = %v, want a line-1 refusal naming the removed key", err)
	}
	if o := res.Registry.Options(core.CalloutJobManager); o != (core.CalloutOptions{}) {
		t.Fatalf("the refused line still set %+v", o)
	}

	client, err := res.Client(kate)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const job = `&(executable=TRANSP)(count=1)(maxtime=30)(simduration=600)` // worst case 1800 cpu-s
	for i := 0; i < 3; i++ {
		if _, err := client.Submit(job, ""); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	u, err := tracker.UsageOf("NFC")
	if err != nil {
		t.Fatal(err)
	}
	if u.Reserved != 3*1800 {
		t.Errorf("reserved = %v cpu-s after three submits, want 3 × 1800", u.Reserved)
	}
}

// TestAuditedResource verifies that the resource's audit log records
// every decision flowing through a live gatekeeper.
func TestAuditedResource(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Audit CA")
	if err != nil {
		t.Fatal(err)
	}
	kate, err := fab.IssueUser("/O=Grid/CN=Kate")
	if err != nil {
		t.Fatal(err)
	}
	log := newAuditLog(t, 64)
	pol := `/O=Grid/CN=Kate: &(action = start)(executable = sim)(count<4) &(action = cancel information signal)(jobowner = self)`
	res, err := fab.StartResource(ResourceConfig{
		Name:     "audited.anl.gov",
		Mode:     ModeCallout,
		GridMap:  map[gsi.DN][]string{kate.Identity(): {"keahey"}},
		VOPolicy: pol,
		AuditLog: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	client, err := res.Client(kate)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	contact, err := client.Submit(`&(executable=sim)(count=2)(simduration=600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(`&(executable=sim)(count=8)`, ""); !gram.IsAuthorizationDenied(err) {
		t.Fatalf("oversized submit = %v", err)
	}
	if err := client.Cancel(contact); err != nil {
		t.Fatal(err)
	}

	stats := log.Stats()
	if stats["permit"] < 2 { // start + cancel
		t.Errorf("permits audited = %d (%v)", stats["permit"], stats)
	}
	if stats["deny"] != 1 {
		t.Errorf("denies audited = %d (%v)", stats["deny"], stats)
	}
	denials := log.Denials()
	if len(denials) != 1 || !strings.Contains(denials[0].Reason, "count<4") {
		t.Errorf("denial record = %+v", denials)
	}
	for _, r := range log.Records() {
		if r.Subject != kate.Identity() {
			t.Errorf("record subject = %s", r.Subject)
		}
		if r.RequestID == "" {
			t.Errorf("record without request ID")
		}
	}
}

func mustPolicyPDP(t *testing.T, text string) core.PDP {
	t.Helper()
	pol, err := policy.ParseString(text, "VO")
	if err != nil {
		t.Fatal(err)
	}
	return &core.PolicyPDP{Policy: pol}
}
