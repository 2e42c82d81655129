package accounts

import (
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"gridauth/internal/gsi"
)

const (
	kate = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
	bo   = gsi.DN("/O=Grid/O=Globus/OU=uh.edu/CN=Bo Liu")
)

func TestStaticAccounts(t *testing.T) {
	m := NewManager()
	m.AddStatic("keahey", Rights{Groups: []string{"fusion"}, MaxCPUs: 8})
	a, err := m.Lookup("keahey")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(a.Rights.Groups, "fusion") || slices.Contains(a.Rights.Groups, "wheel") {
		t.Errorf("group membership wrong")
	}
	if _, err := m.Lookup("nobody"); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("Lookup(nobody) = %v", err)
	}
}

func TestCheckJobCoarseRights(t *testing.T) {
	m := NewManager()
	acct := m.AddStatic("bliu", Rights{MaxCPUs: 4, DiskQuotaMB: 100, MaxWallTime: time.Hour})
	if err := acct.CheckJob(4, 100, time.Hour); err != nil {
		t.Errorf("within rights rejected: %v", err)
	}
	if err := acct.CheckJob(5, 10, time.Minute); err == nil {
		t.Errorf("cpu cap not enforced")
	}
	if err := acct.CheckJob(1, 101, time.Minute); err == nil {
		t.Errorf("disk quota not enforced")
	}
	if err := acct.CheckJob(1, 10, 2*time.Hour); err == nil {
		t.Errorf("wall cap not enforced")
	}
	unlimited := m.AddStatic("root", Rights{})
	if err := unlimited.CheckJob(1000, 1<<20, 1000*time.Hour); err != nil {
		t.Errorf("zero rights should be unlimited: %v", err)
	}
}

func TestDynamicLeaseLifecycle(t *testing.T) {
	now := time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	m := NewManager(WithClock(clock))
	m.ProvisionPool("grid", 2)

	a1, err := m.Lease(kate, Rights{MaxCPUs: 4}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Dynamic || a1.LeasedTo != kate {
		t.Errorf("lease = %+v", a1)
	}
	// Re-lease extends and reconfigures.
	a1b, err := m.Lease(kate, Rights{MaxCPUs: 8}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a1b.Name != a1.Name || a1b.Rights.MaxCPUs != 8 {
		t.Errorf("re-lease = %+v", a1b)
	}
	a2, err := m.Lease(bo, Rights{}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Name == a1.Name {
		t.Errorf("two identities share an account")
	}
	// Pool exhausted.
	if _, err := m.Lease("/O=Grid/CN=Third", Rights{}, time.Hour); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("exhaustion = %v", err)
	}
	// Expiry frees and reconfigures.
	now = now.Add(2 * time.Hour)
	if _, ok := m.LeaseFor(kate); ok {
		t.Errorf("lease survives expiry")
	}
	a3, err := m.Lease("/O=Grid/CN=Third", Rights{}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Rights.MaxCPUs != 0 {
		t.Errorf("recycled account kept old rights")
	}
}

func TestLeaseExpiryRecycles(t *testing.T) {
	now := time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC)
	m := NewManager(WithClock(func() time.Time { return now }))
	m.ProvisionPool("grid", 1)
	if _, err := m.Lease(kate, Rights{}, time.Minute); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute) // lease lapses
	if _, ok := m.LeaseFor(kate); ok {
		t.Errorf("expired lease still active")
	}
	a, err := m.Lease(bo, Rights{}, time.Hour)
	if err != nil {
		t.Fatalf("expired account not recycled: %v", err)
	}
	if a.LeasedTo != bo {
		t.Errorf("recycled lease holder = %s", a.LeasedTo)
	}
}

func TestAccountsListing(t *testing.T) {
	m := NewManager()
	m.AddStatic("zeta", Rights{})
	m.AddStatic("alpha", Rights{})
	m.ProvisionPool("grid", 2)
	all := m.Accounts()
	if len(all) != 4 {
		t.Fatalf("Accounts = %d", len(all))
	}
	if all[0].Name != "alpha" || all[1].Name != "zeta" {
		t.Errorf("static ordering wrong: %s, %s", all[0].Name, all[1].Name)
	}
	if !all[2].Dynamic || !all[3].Dynamic {
		t.Errorf("pool accounts should sort after static")
	}
}

func TestSnapshotsAreIsolated(t *testing.T) {
	m := NewManager()
	m.AddStatic("keahey", Rights{Groups: []string{"fusion"}})
	a, err := m.Lookup("keahey")
	if err != nil {
		t.Fatal(err)
	}
	a.Rights.Groups[0] = "mutated"
	b, err := m.Lookup("keahey")
	if err != nil {
		t.Fatal(err)
	}
	if b.Rights.Groups[0] != "fusion" {
		t.Errorf("Lookup leaked internal state")
	}
}

// Accounts lists every account, static first, sorted by name.
func (m *Manager) Accounts() []*Account {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Account, 0, len(m.static)+len(m.pool))
	for _, a := range m.static {
		out = append(out, cloneAccount(a))
	}
	for _, a := range m.pool {
		out = append(out, cloneAccount(a))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dynamic != out[j].Dynamic {
			return !out[i].Dynamic
		}
		return out[i].Name < out[j].Name
	})
	return out
}
