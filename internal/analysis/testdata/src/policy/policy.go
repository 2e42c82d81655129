// Package policy is a fixture stub of gridauth/internal/policy: just
// the Store snapshot surface the epochuse analyzer matches
// structurally by type and package name.
package policy

// Policy is a parsed policy document.
type Policy struct{ Text string }

// Compiled is the compiled evaluation form.
type Compiled struct{ rules int }

// Store holds an atomically replaceable compiled-policy snapshot with
// a monotonically increasing epoch.
type Store struct {
	pol   *Policy
	comp  *Compiled
	epoch uint64
}

// Current returns the live policy.
func (s *Store) Current() *Policy { return s.pol }

// Compiled returns the live compiled form.
func (s *Store) Compiled() *Compiled { return s.comp }

// Snapshot returns policy, compiled form and epoch from one load.
func (s *Store) Snapshot() (*Policy, *Compiled, uint64) { return s.pol, s.comp, s.epoch }
