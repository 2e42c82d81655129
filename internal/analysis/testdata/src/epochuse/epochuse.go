// Fixture for the epochuse analyzer: cluster-layer reads of a
// replicated policy store must capture the epoch they decided at.
package cluster

import "policy"

// torn reads the policy with no epoch anywhere in the function.
func torn(s *policy.Store) *policy.Policy {
	return s.Current() // want `reads a replicated policy snapshot \(Store\.Current\) without capturing its epoch`
}

// tornCompiled reads the compiled form the same anonymous way.
func tornCompiled(s *policy.Store) *policy.Compiled {
	c := s.Compiled() // want `reads a replicated policy snapshot \(Store\.Compiled\) without capturing its epoch`
	return c
}

// tornInClosure hides the read inside a function literal; the
// enclosing declaration still never captures an epoch.
func tornInClosure(s *policy.Store) func() *policy.Policy {
	return func() *policy.Policy {
		return s.Current() // want `Store\.Current\) without capturing its epoch`
	}
}

// atomicRead uses the sanctioned accessor: no finding.
func atomicRead(s *policy.Store) (*policy.Compiled, uint64) {
	_, c, epoch := s.Snapshot()
	return c, epoch
}

// besideSnapshot reads Current in a function that also takes a
// Snapshot: the two loads can straddle a Replace, so the read is still
// a finding.
func besideSnapshot(s *policy.Store) (*policy.Policy, uint64) {
	_, _, epoch := s.Snapshot()
	return s.Current(), epoch // want `Store\.Current\) without capturing its epoch`
}

// waived carries an audited suppression with a reason.
func waived(s *policy.Store) *policy.Policy {
	return s.Current() //authlint:ignore epochuse fixture demonstrating an audited waiver with a recorded reason
}
