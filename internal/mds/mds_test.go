package mds

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

func fixedClock(t0 time.Time) (func() time.Time, func(time.Duration)) {
	now := t0
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestRegisterFindOrdering(t *testing.T) {
	d := NewDirectory()
	recs := []Record{
		{Name: "small.anl.gov", Contact: "a:1", TotalCPUs: 8, FreeCPUs: 2, QueuedJobs: 5, VOs: []string{"NFC"}},
		{Name: "big.anl.gov", Contact: "b:1", TotalCPUs: 128, FreeCPUs: 64, QueuedJobs: 0, VOs: []string{"NFC", "ATLAS"}},
		{Name: "open.anl.gov", Contact: "c:1", TotalCPUs: 16, FreeCPUs: 2, QueuedJobs: 1}, // serves any VO
	}
	for _, r := range recs {
		if err := d.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	got := d.Find(Query{VO: "NFC"})
	if len(got) != 3 {
		t.Fatalf("Find = %d records", len(got))
	}
	if got[0].Name != "big.anl.gov" {
		t.Errorf("best fit = %s", got[0].Name)
	}
	// Equal free CPUs: shorter queue wins.
	if got[1].Name != "open.anl.gov" || got[2].Name != "small.anl.gov" {
		t.Errorf("tie break order = %s, %s", got[1].Name, got[2].Name)
	}
	// VO filter.
	if got := d.Find(Query{VO: "ATLAS"}); len(got) != 2 {
		t.Errorf("ATLAS resources = %d", len(got))
	}
	// Capacity filter.
	if got := d.Find(Query{MinFreeCPUs: 10}); len(got) != 1 || got[0].Name != "big.anl.gov" {
		t.Errorf("capacity filter = %v", got)
	}
	// Invalid registrations.
	if err := d.Register(Record{Name: "x"}); err == nil {
		t.Errorf("contactless record accepted")
	}
}

func TestExpiryAndRefresh(t *testing.T) {
	clock, advance := fixedClock(time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC))
	d := NewDirectory(WithTTL(time.Minute), WithClock(clock))
	if err := d.Register(Record{Name: "r", Contact: "a:1", FreeCPUs: 4}); err != nil {
		t.Fatal(err)
	}
	advance(30 * time.Second)
	if d.Len() != 1 {
		t.Fatalf("record expired early")
	}
	if err := d.Refresh("r", 2, 7); err != nil {
		t.Fatal(err)
	}
	advance(45 * time.Second) // 75s after registration, 45s after refresh
	got := d.Find(Query{})
	if len(got) != 1 || got[0].FreeCPUs != 2 || got[0].QueuedJobs != 7 {
		t.Fatalf("refreshed record = %+v", got)
	}
	advance(time.Minute)
	if d.Len() != 0 {
		t.Errorf("record survived TTL")
	}
	if err := d.Refresh("r", 1, 1); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("refresh expired = %v", err)
	}
	if err := d.Deregister("r"); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("deregister expired = %v", err)
	}
}

func TestDeregister(t *testing.T) {
	d := NewDirectory()
	if err := d.Register(Record{Name: "r", Contact: "a:1"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Deregister("r"); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Errorf("record survived deregister")
	}
}

func TestRecordsAreIsolated(t *testing.T) {
	d := NewDirectory()
	vos := []string{"NFC"}
	if err := d.Register(Record{Name: "r", Contact: "a:1", VOs: vos}); err != nil {
		t.Fatal(err)
	}
	vos[0] = "MUTATED"
	got := d.Find(Query{VO: "NFC"})
	if len(got) != 1 {
		t.Fatalf("registration aliased caller slice")
	}
	got[0].VOs[0] = "MUTATED-AGAIN"
	if d.Find(Query{VO: "NFC"})[0].VOs[0] != "NFC" {
		t.Errorf("Find leaked internal state")
	}
}

func TestQueryPDP(t *testing.T) {
	d := NewDirectory()
	if err := d.Register(Record{Name: "r", Contact: "a:1", VOs: []string{"NFC"}}); err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	reg.Bind(CalloutMDS, &core.PolicyPDP{Policy: policy.MustParse(
		`/O=Grid/O=Globus/OU=mcs.anl.gov: &(action = information)(service = mds)`, "site")})
	log, err := audit.NewPipeline(audit.Config{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	query := QueryPDP(reg, d, log)

	member := &core.Request{
		Subject: "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey",
		Action:  policy.ActionInformation,
	}
	member.Spec = rsl.NewSpec().Set("service", "mds")
	recs, dec := query(member, Query{VO: "NFC"})
	if dec.Effect != core.Permit || len(recs) != 1 {
		t.Errorf("member query: %v, %d records (%s)", dec.Effect, len(recs), dec.Reason)
	}
	outsider := &core.Request{Subject: "/O=Else/CN=X", Action: policy.ActionInformation}
	outsider.Spec = member.Spec
	if recs, dec := query(outsider, Query{}); dec.Effect == core.Permit || recs != nil {
		t.Errorf("outsider query permitted")
	}
	if got := log.Len(); got != 2 {
		t.Errorf("audit log has %d records, want 2 (permit + refusal)", got)
	}
	if denies := log.Denials(); len(denies) != 1 {
		t.Errorf("audit log has %d denials, want 1", len(denies))
	}
}

// Refresh updates a resource's load figures and renews its lease.
func (d *Directory) Refresh(name string, freeCPUs, queuedJobs int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRegistered, name)
	}
	e.FreeCPUs = freeCPUs
	e.QueuedJobs = queuedJobs
	e.Expires = d.now().Add(d.ttl)
	return nil
}

// Deregister withdraws a resource.
func (d *Directory) Deregister(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotRegistered, name)
	}
	delete(d.entries, name)
	return nil
}

// ErrNotRegistered is returned when refreshing or deregistering an
// unknown resource.
var ErrNotRegistered = errors.New("mds: resource not registered")
