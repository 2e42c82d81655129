package gridauth

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/cluster"
	"gridauth/internal/gram"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
	"gridauth/internal/resilience"
)

// staleDenyPolicy applies to everything Kate does with a tagged job and
// matches none of it: a node enforcing it answers Deny.
const staleDenyPolicy = `
/O=Grid/CN=Kate:
  &(action = start cancel information signal)(jobtag = REVOKED)
`

// TestStaleFollowerAnswersErrorNotDeny pins the order of a follower
// node's chain (docs/CLUSTER.md): the staleness guard is consulted
// before the replicated policy. A node past its staleness bound no
// longer knows whether the policy it holds is current, so it must claim
// neither Permit nor Deny — here the policy it last replicated DENIES
// the request, and the node must still answer Error: the hard failure
// code for startup, and for management the retryable code that sends
// the client to a node that still hears the publisher. With the guard
// behind the store the stale Deny would win, and a Deny is final.
func TestStaleFollowerAnswersErrorNotDeny(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Stale CA")
	if err != nil {
		t.Fatal(err)
	}
	kate, err := fab.IssueUser("/O=Grid/CN=Kate")
	if err != nil {
		t.Fatal(err)
	}

	pub := cluster.NewPublisher(cluster.PublisherConfig{Heartbeat: 10 * time.Millisecond})
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = pub.Serve(pl) }()
	t.Cleanup(pub.Close)
	if _, err := pub.SetPolicy(soakSource, soakPolicy); err != nil {
		t.Fatal(err)
	}

	// The follower's clock is the test's: skew it forward and the replica
	// is as stale as after a partition that long.
	var skew atomic.Int64
	metrics := obs.NewMetrics()
	follower := cluster.NewFollower(cluster.FollowerConfig{
		Addr:    pl.Addr().String(),
		Sources: []string{soakSource},
		Metrics: metrics,
		Now:     func() time.Time { return time.Now().Add(time.Duration(skew.Load())) },
	})
	ctx, stopFollower := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		_ = follower.Run(ctx)
	}()
	t.Cleanup(func() {
		stopFollower()
		<-followerDone
	})

	log := newAuditLog(t, 64)
	res, err := fab.StartResource(ResourceConfig{
		Name:         "stale.cluster",
		Mode:         ModeCallout,
		GridMap:      map[gsi.DN][]string{kate.Identity(): {"kate"}},
		Follower:     follower,
		maxStaleness: soakMaxStaleness,
		AuditLog:     log,
		Metrics:      metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(res.Close)
	waitCtx, cancelWait := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelWait()
	if err := follower.WaitReady(waitCtx); err != nil {
		t.Fatalf("follower never synced: %v", err)
	}
	client, err := res.Client(kate)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	// One attempt, so every refusal counted below is one request.
	client.SetRetryPolicy(resilience.Policy{Attempts: 1})

	// Fresh and granted: a job to manage later.
	contact, err := client.Submit(soakJob, "")
	if err != nil {
		t.Fatalf("fresh submit under the granting policy: %v", err)
	}

	// Fresh and denied: the replicated policy now refuses Kate, and a
	// fresh node says so with a plain Deny decided by the store.
	epoch, err := pub.SetPolicy(soakSource, staleDenyPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); follower.Epoch() < epoch; {
		if time.Now().After(deadline) {
			t.Fatalf("follower still at epoch %d, want %d", follower.Epoch(), epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.Submit(soakJob, ""); !gram.IsAuthorizationDenied(err) {
		t.Fatalf("fresh submit under the denying policy = %v, want an authorization denial", err)
	}
	if rec := lastRecord(t, log); rec.Effect != "deny" || rec.Source != "policy-store:"+soakSource {
		t.Fatalf("fresh denial audited as %s by %s, want a deny by the replicated store", rec.Effect, rec.Source)
	}

	// Stale: no more publisher contact, and the bound long past.
	stopFollower()
	<-followerDone
	skew.Store(int64(10 * soakMaxStaleness))
	if got := metrics.ClusterStaleRefusals.Load(); got != 0 {
		t.Fatalf("cluster_stale_refusals_total = %d before any stale request", got)
	}

	if _, err := client.Submit(soakJob, ""); !gram.IsAuthorizationFailure(err) {
		t.Errorf("stale submit = %v, want the hard CodeAuthorizationFailure", err)
	}
	checkGuardDecided := func(what string) {
		t.Helper()
		if rec := lastRecord(t, log); rec.Effect != "error" || rec.Source != "cluster-staleness" {
			t.Errorf("%s audited as %s by %s, want an error decided by cluster-staleness", what, rec.Effect, rec.Source)
		}
	}
	checkGuardDecided("stale submit")
	if _, err := client.Status(contact); !gram.IsAuthorizationUnavailable(err) {
		t.Errorf("stale status = %v, want the retryable CodeAuthorizationUnavailable", err)
	}
	checkGuardDecided("stale status")
	if err := client.Cancel(contact); !gram.IsAuthorizationUnavailable(err) {
		t.Errorf("stale cancel = %v, want the retryable CodeAuthorizationUnavailable", err)
	}
	checkGuardDecided("stale cancel")
	if got := metrics.ClusterStaleRefusals.Load(); got != 3 {
		t.Errorf("cluster_stale_refusals_total = %d, want 3 (submit, status, cancel)", got)
	}
}

// lastRecord returns the newest audit record.
func lastRecord(t *testing.T, log *audit.Log) audit.Record {
	t.Helper()
	recs := log.Records()
	if len(recs) == 0 {
		t.Fatal("no audit record")
	}
	return recs[len(recs)-1]
}
