package allocation

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

const (
	kate = "/O=Grid/CN=Kate"
	bo   = "/O=Grid/CN=Bo"
	solo = "/O=Grid/CN=Independent"
)

func startReq(subject, jobID string, count, maxtimeMin int) *core.Request {
	spec := rsl.NewSpec().Set("executable", "sim")
	if count > 0 {
		spec.Set("count", itoa(count))
	}
	if maxtimeMin >= 0 {
		spec.Set("maxtime", itoa(maxtimeMin))
	}
	return &core.Request{
		Subject: dn(subject),
		Action:  policy.ActionStart,
		JobID:   jobID,
		Spec:    spec,
	}
}

func TestReserveCommitLifecycle(t *testing.T) {
	tr := NewTracker()
	tr.SetGrant(Grant{VO: "NFC", CPUSeconds: 10_000})
	if err := tr.Reserve("NFC", "j1", 6000); err != nil {
		t.Fatal(err)
	}
	u, err := tr.UsageOf("NFC")
	if err != nil {
		t.Fatal(err)
	}
	if u.Reserved != 6000 || u.Remaining() != 4000 {
		t.Errorf("usage = %+v", u)
	}
	// A second reservation that exceeds the rest is refused.
	if err := tr.Reserve("NFC", "j2", 5000); err == nil {
		t.Errorf("over-reservation accepted")
	}
	// Commit with the actual (smaller) consumption releases the
	// difference.
	tr.Commit("j1", 1500)
	u, _ = tr.UsageOf("NFC")
	if u.Used != 1500 || u.Reserved != 0 || u.Remaining() != 8500 {
		t.Errorf("after commit: %+v", u)
	}
	// Unknown jobs and VOs are harmless / explicit.
	tr.Commit("ghost", 42)
	if _, err := tr.UsageOf("ATLAS"); !errors.Is(err, ErrUnknownVO) {
		t.Errorf("unknown VO: %v", err)
	}
	if err := tr.Reserve("ATLAS", "j", 1); !errors.Is(err, ErrUnknownVO) {
		t.Errorf("reserve unknown VO: %v", err)
	}
}

func TestPDPAdmissionControl(t *testing.T) {
	tr := NewTracker()
	tr.SetGrant(Grant{VO: "NFC", CPUSeconds: 7200}) // 2 cpu-hours
	tr.Enroll(dn(kate), "NFC")
	pdp := &PDP{Tracker: tr, ReserveOnPermit: true}

	// 2 cpus × 30 min = 3600 cpu-s: fits.
	if d := pdp.Authorize(context.Background(), startReq(kate, "j1", 2, 30)); d.Effect != core.NotApplicable {
		t.Fatalf("first job: %v (%s)", d.Effect, d.Reason)
	}
	// Second identical job exactly exhausts the grant.
	if d := pdp.Authorize(context.Background(), startReq(kate, "j2", 2, 30)); d.Effect != core.NotApplicable {
		t.Fatalf("second job: %v (%s)", d.Effect, d.Reason)
	}
	// Third is refused: the VO as a whole is out of budget.
	d := pdp.Authorize(context.Background(), startReq(kate, "j3", 1, 1))
	if d.Effect != core.Deny || !strings.Contains(d.Reason, "exhausted") {
		t.Fatalf("third job: %v (%s)", d.Effect, d.Reason)
	}
	// A job finishing under its worst case frees budget.
	tr.Commit("j1", 600)
	if d := pdp.Authorize(context.Background(), startReq(kate, "j4", 1, 10)); d.Effect != core.NotApplicable {
		t.Errorf("after commit: %v (%s)", d.Effect, d.Reason)
	}
}

func TestPDPScope(t *testing.T) {
	tr := NewTracker()
	tr.SetGrant(Grant{VO: "NFC", CPUSeconds: 100})
	tr.Enroll(dn(kate), "NFC")
	pdp := &PDP{Tracker: tr}

	// Management actions abstain.
	mgmt := &core.Request{Subject: dn(kate), Action: policy.ActionCancel}
	if d := pdp.Authorize(context.Background(), mgmt); d.Effect != core.NotApplicable {
		t.Errorf("management: %v", d.Effect)
	}
	// Unenrolled identities abstain (alternate allocations exist).
	if d := pdp.Authorize(context.Background(), startReq(solo, "j", 1, 1)); d.Effect != core.NotApplicable {
		t.Errorf("unenrolled: %v", d.Effect)
	}
	// Unbounded requests are refused: the provider demands maxtime.
	if d := pdp.Authorize(context.Background(), startReq(kate, "j", 1, -1)); d.Effect != core.Deny {
		t.Errorf("unbounded: %v", d.Effect)
	}
	// Garbage counts are refused.
	bad := startReq(kate, "j", 0, 10)
	bad.Spec.Set("count", "lots")
	if d := pdp.Authorize(context.Background(), bad); d.Effect != core.Deny {
		t.Errorf("bad count: %v", d.Effect)
	}
}

// TestPDPNotReservedBehindDeny: a request an earlier source denies must
// not reserve VO budget. The chain walker stops at the deny, so the
// reserving PDP — bound last — runs only when every earlier source has
// accepted, and repeated denials cannot drain the allocation.
func TestPDPNotReservedBehindDeny(t *testing.T) {
	tr := NewTracker()
	tr.SetGrant(Grant{VO: "NFC", CPUSeconds: 7200})
	tr.Enroll(dn(kate), "NFC")
	pdp := &PDP{Tracker: tr, ReserveOnPermit: true}
	if !pdp.SideEffecting() {
		t.Fatal("reserving PDP must declare itself side-effecting")
	}

	deny := core.PDPFunc{ID: "local", Fn: func(context.Context, *core.Request) core.Decision {
		return core.DenyDecision("local", "no")
	}}
	chain := core.NewCombined(core.RequireAllPermit, deny, pdp)
	for i := 0; i < 10; i++ {
		if d := chain.Authorize(context.Background(), startReq(kate, "j"+itoa(i), 2, 30)); d.Effect != core.Deny {
			t.Fatalf("request %d: %v, want Deny", i, d.Effect)
		}
	}
	u, err := tr.UsageOf("NFC")
	if err != nil {
		t.Fatal(err)
	}
	if u.Reserved != 0 || u.Used != 0 {
		t.Fatalf("denied requests drained the allocation: %+v", u)
	}

	// With a permitting source in front, the reservation fires normally.
	permit := core.PDPFunc{ID: "vo", Fn: func(context.Context, *core.Request) core.Decision {
		return core.PermitDecision("vo", "ok")
	}}
	chain = core.NewCombined(core.RequireAllPermit, permit, pdp)
	if d := chain.Authorize(context.Background(), startReq(kate, "ok", 2, 30)); d.Effect != core.Permit {
		t.Fatalf("permitted request: %v (%s)", d.Effect, d.Reason)
	}
	u, _ = tr.UsageOf("NFC")
	if u.Reserved != 3600 {
		t.Errorf("Reserved = %v, want 3600", u.Reserved)
	}
}

func TestAttachCommitsFromSchedulerEvents(t *testing.T) {
	tr := NewTracker()
	tr.SetGrant(Grant{VO: "NFC", CPUSeconds: 100_000})
	cluster := jobcontrol.NewCluster(8)
	tr.Attach(cluster)

	job, err := cluster.Submit(jobcontrol.JobSpec{Executable: "sim", Count: 2, Duration: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Reserve under the scheduler's job ID so the event commit finds it.
	if err := tr.Reserve("NFC", job.ID, 2*30*60); err != nil {
		t.Fatal(err)
	}
	cluster.Advance(11 * time.Minute)
	u, err := tr.UsageOf("NFC")
	if err != nil {
		t.Fatal(err)
	}
	if u.Reserved != 0 {
		t.Errorf("reservation not released: %+v", u)
	}
	if u.Used != 1200 { // 2 cpus × 600 s
		t.Errorf("used = %v, want 1200", u.Used)
	}
}

func TestUsagesSorted(t *testing.T) {
	tr := NewTracker()
	tr.SetGrant(Grant{VO: "ZVO", CPUSeconds: 1})
	tr.SetGrant(Grant{VO: "AVO", CPUSeconds: 2})
	tr.SetGrant(Grant{VO: "AVO", CPUSeconds: 3}) // replace keeps usage
	us := tr.Usages()
	if len(us) != 2 || us[0].VO != "AVO" || us[0].Granted != 3 {
		t.Errorf("usages = %+v", us)
	}
}

// Property: Used+Reserved never exceeds Granted under any interleaving
// of successful reserves and commits.
func TestQuickBudgetInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := NewTracker()
		tr.SetGrant(Grant{VO: "V", CPUSeconds: 1000})
		live := []string{}
		for i, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				// Commit the oldest live job with some actual usage.
				id := live[0]
				live = live[1:]
				tr.Commit(id, float64(op%500))
			} else {
				id := "j" + itoa(i)
				if err := tr.Reserve("V", id, float64(op%400)); err == nil {
					live = append(live, id)
				}
			}
			u, err := tr.UsageOf("V")
			if err != nil {
				return false
			}
			if u.Reserved < 0 {
				return false
			}
			if u.Used+u.Reserved > u.Granted+500 { // commits may exceed reservation by actuals
				// Reserved portion alone must never overshoot.
				if u.Reserved > u.Granted {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func dn(s string) gsi.DN { return gsi.DN(s) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Usages lists all VOs' usage sorted by name.
func (t *Tracker) Usages() []Usage {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Usage, 0, len(t.grants))
	for _, u := range t.grants {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VO < out[j].VO })
	return out
}
