// Package accounts models the local-account layer GRAM enforcement rests
// on: static Unix-style accounts with coarse rights, and the dynamic
// account pool discussed in §6.1 as a partial remedy for the paper's
// shortcomings (4) and (5) — enforcement "tied to a statically configured
// local account" and the burden of requiring an account per user.
//
// An account's rights are deliberately coarse (group memberships, a disk
// quota, a CPU cap): the point the paper makes — and experiment E6
// measures — is that accounts cannot express fine-grain policy, only
// approximate it.
package accounts

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gridauth/internal/gsi"
)

// Errors returned by the manager.
var (
	ErrUnknownAccount = errors.New("accounts: unknown account")
	ErrPoolExhausted  = errors.New("accounts: dynamic account pool exhausted")
)

// Rights are the coarse-grained controls an account can carry — the
// "very few configuration parameters" accounts offer for enforcement.
type Rights struct {
	// Groups control file system access (the §6.1 sandbox-by-groups
	// remark).
	Groups []string
	// MaxCPUs caps processors per job (0 = unlimited).
	MaxCPUs int
	// DiskQuotaMB caps disk use (0 = unlimited).
	DiskQuotaMB int
	// MaxWallTime caps job runtime (0 = unlimited).
	MaxWallTime time.Duration
}

// Account is a local account.
type Account struct {
	Name string
	UID  int
	// Dynamic marks pool accounts created/recycled on the fly.
	Dynamic bool
	Rights  Rights
	// LeasedTo is the Grid identity currently bound to a dynamic
	// account.
	LeasedTo gsi.DN
	// LeaseExpires is when the lease lapses.
	LeaseExpires time.Time
}

// Manager owns the static account table and the dynamic pool.
type Manager struct {
	mu      sync.Mutex
	static  map[string]*Account
	pool    []*Account
	leases  map[gsi.DN]*Account
	nextUID int
	now     func() time.Time
}

// Option configures a Manager.
type Option func(*Manager)

// NewManager creates an account manager.
func NewManager(opts ...Option) *Manager {
	m := &Manager{
		static:  make(map[string]*Account),
		leases:  make(map[gsi.DN]*Account),
		nextUID: 1000,
		now:     time.Now,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// AddStatic installs a static account.
func (m *Manager) AddStatic(name string, rights Rights) *Account {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextUID++
	a := &Account{Name: name, UID: m.nextUID, Rights: cloneRights(rights)}
	m.static[name] = a
	return cloneAccount(a)
}

// Lookup finds an account by name (static accounts and leased dynamic
// accounts).
func (m *Manager) Lookup(name string) (*Account, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, ok := m.static[name]; ok {
		return cloneAccount(a), nil
	}
	for _, a := range m.pool {
		if a.Name == name {
			return cloneAccount(a), nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownAccount, name)
}

// ProvisionPool creates n dynamic accounts named prefixNNN.
func (m *Manager) ProvisionPool(prefix string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		m.nextUID++
		m.pool = append(m.pool, &Account{
			Name:    prefix + strconv.Itoa(len(m.pool)+1),
			UID:     m.nextUID,
			Dynamic: true,
		})
	}
}

// HasPool reports whether any dynamic accounts were provisioned.
func (m *Manager) HasPool() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pool) > 0
}

// Lease binds a dynamic account to a Grid identity for ttl, configuring
// it with rights derived from the *request* rather than from a static
// user profile — the property §6.1 highlights: "account configuration
// relevant to policies for a particular resource management request as
// opposed to a static user's configuration". A second lease for the same
// identity extends the existing one.
func (m *Manager) Lease(id gsi.DN, rights Rights, ttl time.Duration) (*Account, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	if a, ok := m.leases[id]; ok {
		a.Rights = cloneRights(rights)
		a.LeaseExpires = now.Add(ttl)
		return cloneAccount(a), nil
	}
	for _, a := range m.pool {
		if a.LeasedTo != "" && a.LeaseExpires.After(now) {
			continue
		}
		if a.LeasedTo != "" {
			delete(m.leases, a.LeasedTo) // expired: recycle
		}
		a.LeasedTo = id
		a.LeaseExpires = now.Add(ttl)
		a.Rights = cloneRights(rights)
		m.leases[id] = a
		return cloneAccount(a), nil
	}
	return nil, ErrPoolExhausted
}

// LeaseFor returns the active dynamic account for an identity.
func (m *Manager) LeaseFor(id gsi.DN) (*Account, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.leases[id]
	if !ok || !a.LeaseExpires.After(m.now()) {
		return nil, false
	}
	return cloneAccount(a), true
}

// CheckJob applies the account's coarse rights to a job request,
// returning nil when the account's privileges admit it. This is the
// "enforcement by privileges of the account" of §4.1 — note what it
// CANNOT check: executables, directories, jobtags, per-request limits.
func (a *Account) CheckJob(cpus int, diskMB int, wall time.Duration) error {
	if a.Rights.MaxCPUs > 0 && cpus > a.Rights.MaxCPUs {
		return fmt.Errorf("accounts: %s may use at most %d cpus, requested %d", a.Name, a.Rights.MaxCPUs, cpus)
	}
	if a.Rights.DiskQuotaMB > 0 && diskMB > a.Rights.DiskQuotaMB {
		return fmt.Errorf("accounts: %s disk quota %dMB exceeded by %dMB request", a.Name, a.Rights.DiskQuotaMB, diskMB)
	}
	if a.Rights.MaxWallTime > 0 && wall > a.Rights.MaxWallTime {
		return fmt.Errorf("accounts: %s wall time cap %s exceeded by %s request", a.Name, a.Rights.MaxWallTime, wall)
	}
	return nil
}

func cloneRights(r Rights) Rights {
	cp := r
	cp.Groups = append([]string(nil), r.Groups...)
	return cp
}

func cloneAccount(a *Account) *Account {
	cp := *a
	cp.Rights = cloneRights(a.Rights)
	return &cp
}
