package cluster

import (
	"context"
	"fmt"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/obs"
)

// DefaultMaxStaleness is the staleness bound a guard enforces when none
// is configured: long enough to ride out a publisher restart, short
// enough that a partitioned node cannot keep enforcing a superseded
// policy for long.
const DefaultMaxStaleness = 15 * time.Second

// StalenessGuard is a PDP that bounds how stale a follower's replicated
// policy may be while the node keeps deciding. While the replica is
// within the bound it ABSTAINS (decisions proceed on the replicated
// policy, which may be up to the bound behind the leader — the
// stale-bounded window). Once the publisher has been silent longer than
// the bound, it returns an ERROR decision: the node no longer knows
// whether its policy is current, so it must not claim a Permit OR a
// Deny. The PEP's degraded-mode mapping (docs/ARCHITECTURE.md) then does
// exactly the right thing per action class — job startup fails closed
// (CodeAuthorizationFailure), management surfaces the retryable
// CodeAuthorizationUnavailable so clients fail over to a node that
// still hears the publisher.
//
// Bind it into the node's PDP chain ahead of the replicated StorePDPs;
// combined under RequireAllPermit, its Error dominates any stale
// Permit.
type StalenessGuard struct {
	// Follower is the replica whose freshness gates decisions.
	Follower *Follower
	// MaxStaleness is the bound (0 selects DefaultMaxStaleness). It
	// must comfortably exceed the publisher's heartbeat interval or a
	// healthy idle cluster trips it.
	MaxStaleness time.Duration
	// Metrics receives cluster_stale_refusals_total; nil skips
	// counting.
	Metrics *obs.Metrics
}

var _ core.NonBlockingPDP = (*StalenessGuard)(nil)

// Name implements PDP.
func (g *StalenessGuard) Name() string { return "cluster-staleness" }

// NonBlocking implements NonBlockingPDP: the check is two atomic loads.
func (g *StalenessGuard) NonBlocking() bool { return true }

// bound returns the effective staleness bound.
func (g *StalenessGuard) bound() time.Duration {
	if g.MaxStaleness > 0 {
		return g.MaxStaleness
	}
	return DefaultMaxStaleness
}

// Authorize implements PDP. Honouring ctx is a liveness pre-check; the
// guard itself cannot block.
func (g *StalenessGuard) Authorize(ctx context.Context, req *core.Request) core.Decision {
	if err := ctx.Err(); err != nil {
		return core.ErrorDecision(g.Name(), "request abandoned: "+err.Error())
	}
	stale := g.Follower.Staleness()
	max := g.bound()
	epoch := g.Follower.Epoch()
	if stale <= max {
		return core.AbstainDecision(g.Name(),
			fmt.Sprintf("replica fresh at epoch %d (staleness %v within %v)",
				epoch, stale.Round(time.Millisecond), max))
	}
	if g.Metrics != nil {
		g.Metrics.ClusterStaleRefusals.Inc()
	}
	if stale == neverSynced {
		return core.ErrorDecision(g.Name(),
			fmt.Sprintf("policy replica never synced with the publisher (bound %v)", max))
	}
	return core.ErrorDecision(g.Name(),
		fmt.Sprintf("policy replica stale: last publisher contact %v ago exceeds bound %v (still at epoch %d)",
			stale.Round(time.Millisecond), max, epoch))
}
