// Package cluster federates multiple gatekeeper nodes fronting one
// resource into a single authorization domain (docs/CLUSTER.md).
//
// The paper's architecture places the fine-grain policy beside the
// resource; a production deployment runs SEVERAL gatekeeper processes
// for availability, and all of them must enforce the SAME policy at
// (bounded-staleness) the same version. This package supplies the three
// replication primitives that make that true:
//
//   - a Publisher on the leader/seed node that assigns a monotonically
//     increasing CLUSTER EPOCH to every policy or ticket-secret change
//     and pushes full-state snapshots to subscribed followers;
//   - a Follower per replica node that applies snapshots atomically
//     through policy.Store's lock-free snapshot swap (so the node's
//     next request is decided against the replicated policy) and
//     installs shared GSI ticket secrets into the node's SecretRing so
//     session resumption survives failover;
//   - a StalenessGuard PDP that lets a partitioned follower keep serving
//     stale-bounded decisions up to a configured staleness bound and
//     then FAIL CLOSED (an Error decision, which the PEP maps to the
//     degraded-mode codes of docs/ARCHITECTURE.md: fail-closed for job
//     startup, retryable for management).
//
// The wire protocol is deliberately minimal: newline-delimited JSON
// State messages over TCP, full state every time. Snapshots are
// idempotent — a follower ignores any state whose epoch is not newer
// than what it already applied — so redelivery, reconnection and
// heartbeats (which resend the current state as a liveness signal) need
// no special casing.
package cluster

import (
	"gridauth/internal/gsi"
	"gridauth/internal/policy/analyze"
)

// PolicyText is one administrative source's policy in transportable
// form: the text is re-parsed and re-compiled on each follower, so
// nodes never exchange compiled artifacts.
type PolicyText struct {
	Source string `json:"source"`
	Text   string `json:"text"`
}

// State is the full replicated state of the cluster at one epoch. The
// publisher always ships the complete state rather than deltas: at the
// sizes policies and secret rings reach, losing delta bookkeeping (and
// its resync bugs) is worth far more than the bytes.
type State struct {
	// Incarnation identifies the publisher instance that minted this
	// state. Epoch counters live in the publisher's memory, so a
	// RESTARTED publisher (the documented policy-rollout path) starts
	// minting from 1 again; the fresh random incarnation ID tells
	// followers that the old ordering no longer applies and they must
	// re-open their strictly-newer epoch gate. Without it, surviving
	// followers at a higher pre-restart epoch would silently discard the
	// new lineage forever while its heartbeats kept them "fresh".
	Incarnation string `json:"incarnation,omitempty"`
	// Epoch orders states within one incarnation: a follower applies a
	// state only if its epoch exceeds everything it has applied from the
	// same incarnation. Epoch 0 is the empty pre-seed state and is never
	// applied (but still refreshes liveness).
	Epoch uint64 `json:"epoch"`
	// Policies carries every administrative source's current policy.
	Policies []PolicyText `json:"policies,omitempty"`
	// Secrets is the live GSI ticket-secret set (current and
	// still-overlapping old versions), so any node can redeem any
	// node's resumption tickets.
	Secrets []gsi.SecretVersion `json:"secrets,omitempty"`
	// Findings is the leader's static analysis of the policy set this
	// state carries (docs/POLICY-ANALYSIS.md). It is stamped at publish
	// time so every node — and every operator inspecting any node —
	// sees the same diagnosis of the same epoch without re-running the
	// analyzer per replica.
	Findings []analyze.Finding `json:"findings,omitempty"`
}

// clone deep-copies a state so snapshots handed to subscribers are
// immune to later mutation under the publisher's lock.
func (s State) clone() State {
	out := State{Incarnation: s.Incarnation, Epoch: s.Epoch}
	if len(s.Policies) > 0 {
		out.Policies = append([]PolicyText(nil), s.Policies...)
	}
	if len(s.Findings) > 0 {
		out.Findings = append([]analyze.Finding(nil), s.Findings...)
	}
	for _, v := range s.Secrets {
		out.Secrets = append(out.Secrets, gsi.SecretVersion{
			ID:  v.ID,
			Key: append([]byte(nil), v.Key...),
		})
	}
	return out
}
