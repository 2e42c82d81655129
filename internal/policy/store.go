package policy

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is a concurrency-safe holder of the CURRENT policy of one
// administrative source, for deployments where the policy can change
// while the resource is serving requests (the paper's policies live in
// files the resource owner or VO administrator edits).
//
// The read path is lock-free: the policy, its compiled form (Compiled)
// and a monotonically increasing epoch are swapped together in one
// atomic.Pointer snapshot, so a decision costs one atomic
// load and a reader can never observe a compiled form that belongs to a
// different policy than Current(). The epoch orders replacements: it is
// assigned under the store's mutex at swap time, so a snapshot with a
// higher epoch is always the one installed later. Cluster replication
// (internal/cluster) leans on this to tell a re-delivered stale policy
// from a genuinely newer one.
//
// Every request reads the current snapshot, so the very next request
// after a swap is decided against the new policy. Every mutation also
// fires the OnChange / OnEpochChange hooks after the swap, which is how
// the findings analyzer and cluster replication learn of it. The
// compiled form is rebuilt inside Replace before the hooks fire, so by
// the time a hook runs the new compiled snapshot is already what
// evaluators see.
//
// Hook delivery is ORDERED and COALESCING: hooks observe store epochs
// in strictly increasing order even when concurrent Replace calls race
// (compilation happens outside the lock, so the slower compile can
// finish last). When replacements outpace delivery, intermediate epochs
// are skipped and only the newest is delivered — a hook that fires for
// epoch N is guaranteed no snapshot older than N is current.
type Store struct {
	snap atomic.Pointer[snapshot]
	// mu serializes swaps (so snapshots cannot install out of epoch
	// order) and guards the hook list. Readers never take it.
	mu    sync.Mutex
	seq   uint64 // last assigned epoch
	hooks []func(epoch uint64)

	// notifyMu guards the coalescing delivery state below. It is never
	// held while hooks run, so hooks may call back into the store
	// (including Replace) without deadlocking.
	notifyMu  sync.Mutex
	notifying bool      // a goroutine is currently draining deliveries
	pendingN  *snapshot // newest snapshot awaiting delivery
	notified  uint64    // highest epoch hooks have been fired for
}

// snapshot pairs a policy with its compiled form and the epoch assigned
// at swap time; all three are immutable.
type snapshot struct {
	pol      *Policy
	compiled *Compiled
	epoch    uint64
}

func newSnapshot(pol *Policy) *snapshot {
	s := &snapshot{pol: pol}
	if pol != nil {
		s.compiled = Compile(pol)
	}
	return s
}

// NewStore creates a store holding pol, compiling it immediately. The
// initial snapshot has epoch 1.
func NewStore(pol *Policy) *Store {
	s := &Store{seq: 1}
	snap := newSnapshot(pol)
	snap.epoch = 1
	s.snap.Store(snap)
	s.notified = 1 // the initial install predates any subscriber
	return s
}

// Current returns the policy as of now. Policies are treated as
// immutable once stored: mutate by calling Replace with a new one.
func (s *Store) Current() *Policy {
	return s.snap.Load().pol
}

// Compiled returns the compiled form of the current policy. It is
// rebuilt on every Replace, so the result always corresponds to the
// policy a concurrent Current() call from the same snapshot returns.
func (s *Store) Compiled() *Compiled {
	return s.snap.Load().compiled
}

// Epoch returns the epoch of the current snapshot. Epochs increase by
// one per installed replacement, starting at 1 for the snapshot the
// store was created with.
func (s *Store) Epoch() uint64 {
	return s.snap.Load().epoch
}

// Snapshot returns the current policy, its compiled form and its epoch
// as one consistent view (a single atomic load). Code that acts on a
// snapshot AND records which version it acted on — replication,
// staleness accounting — must use this rather than separate Current /
// Compiled / Epoch calls, which may straddle a swap; the authlint
// epochuse check enforces that for cluster-layer code.
func (s *Store) Snapshot() (*Policy, *Compiled, uint64) {
	sn := s.snap.Load()
	return sn.pol, sn.compiled, sn.epoch
}

// Source returns the current policy's source label.
func (s *Store) Source() string {
	return s.Current().Source
}

// Update atomically replaces the policy (and its compiled form) and
// notifies subscribers. It is Replace without the epoch result, kept
// for callers that don't track versions.
func (s *Store) Update(pol *Policy) {
	s.Replace(pol)
}

// Replace atomically installs pol (compiling it first, outside the
// lock) and returns the epoch assigned to it; subscribers are notified
// in epoch order. A nil pol is a no-op and returns 0.
func (s *Store) Replace(pol *Policy) uint64 {
	if pol == nil {
		return 0
	}
	// Compile outside the lock: compilation is pure and per-snapshot,
	// and at large policies it is the expensive part of a replacement.
	snap := newSnapshot(pol)
	s.mu.Lock()
	s.seq++
	snap.epoch = s.seq
	s.snap.Store(snap)
	s.mu.Unlock()
	s.notify(snap)
	return snap.epoch
}

// notify delivers the change to hooks, preserving epoch order across
// racing Replace calls. Exactly one goroutine drains deliveries at a
// time; the others leave their (newer) snapshot behind and return, so
// an epoch is never announced after a higher one and bursts coalesce to
// the newest state.
func (s *Store) notify(snap *snapshot) {
	s.notifyMu.Lock()
	if s.pendingN == nil || snap.epoch > s.pendingN.epoch {
		s.pendingN = snap
	}
	if s.notifying {
		s.notifyMu.Unlock()
		return
	}
	s.notifying = true
	for {
		next := s.pendingN
		s.pendingN = nil
		if next == nil || next.epoch <= s.notified {
			s.notifying = false
			s.notifyMu.Unlock()
			return
		}
		s.notified = next.epoch
		s.notifyMu.Unlock()
		s.mu.Lock()
		hooks := append([]func(uint64){}, s.hooks...)
		s.mu.Unlock()
		// Hooks run outside both locks so they may call back into the
		// store; a reentrant Replace parks its snapshot in pendingN and
		// this loop delivers it next.
		for _, fn := range hooks {
			fn(next.epoch)
		}
		s.notifyMu.Lock()
	}
}

// UpdateText parses text in the policy language (keeping the current
// source label) and installs it.
func (s *Store) UpdateText(text string) error {
	pol, err := ParseString(text, s.Source())
	if err != nil {
		return fmt.Errorf("policy store: %w", err)
	}
	s.Update(pol)
	return nil
}

// OnChange subscribes fn to policy replacements. fn runs after the new
// policy is visible, so a caller that reads the store in fn is
// guaranteed the next Current() call already returns a policy at least
// as new as the one that triggered the notification. Under concurrent
// replacements delivery may coalesce: fn fires once for the newest
// state rather than once per Replace.
func (s *Store) OnChange(fn func()) {
	if fn == nil {
		return
	}
	s.OnEpochChange(func(uint64) { fn() })
}

// OnEpochChange is OnChange for subscribers that track versions: fn
// receives the epoch of the snapshot being announced, and successive
// calls see strictly increasing epochs (intermediate epochs may be
// skipped when replacements outpace delivery).
func (s *Store) OnEpochChange(fn func(epoch uint64)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}
