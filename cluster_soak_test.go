package gridauth

// Federated-cluster chaos soak (docs/CLUSTER.md): three gatekeeper
// nodes front ONE resource — shared scheduler, shared job table,
// replicated policy epochs and replicated GSI ticket secrets from a
// standalone publisher — while concurrent clients with failover lists
// submit and manage jobs. The soak then injects the cluster failure
// modes and asserts the robustness contract end to end:
//
//   - NO SPURIOUS PERMITS, ever: a user the policy never granted is
//     refused by every node through kills, restarts, partitions and
//     policy flips;
//   - node kill + restart: clients redial through their failover list,
//     resume their GSI session on a surviving node (replicated ticket
//     ring), and keep completing work; the restarted node resyncs and
//     rejoins;
//   - partition: a follower cut off from the publisher serves
//     stale-bounded decisions up to max-staleness, then FAILS CLOSED —
//     job startup gets the hard CodeAuthorizationFailure, management
//     the retryable CodeAuthorizationUnavailable — and recovers when
//     the partition heals;
//   - a policy change published at epoch E is enforced by every live
//     node as soon as its follower applies E (bounded by the staleness
//     window), including revocation of a previously working grant;
//   - publisher RESTART: a fresh publisher incarnation (epoch counter
//     back at 0, the documented policy-rollout path) is adopted by the
//     surviving followers, so a rollout via restart is enforced
//     cluster-wide instead of being silently discarded as "older"
//     epochs.
//
// The replication channel runs with mutual GSI authentication — the
// production wiring — so every phase also soaks the handshake path.
//
// Run under -race in CI (make cluster-soak); every failure mode here is
// a concurrency bug by construction.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/cluster"
	"gridauth/internal/faultinject"
	"gridauth/internal/gram"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/obs"
	"gridauth/internal/resilience"
)

const soakSource = "VO"

// Kate may start tagged jobs and manage her own; Eve (mapped to an
// account, so she passes admission) has NO grant and must never be
// permitted.
const soakPolicy = `
/O=Grid/CN=Kate:
  &(action = start)(jobtag = NFC)
  &(action = cancel information signal)(jobowner = self)
`

// soakPolicyRevoked withdraws Kate's start grant but keeps her
// management rights over jobs she already owns.
const soakPolicyRevoked = `
/O=Grid/CN=Kate:
  &(action = cancel information signal)(jobowner = self)
`

const soakJob = `&(executable=sim)(jobtag=NFC)(count=1)`

// soakMaxStaleness is deliberately generous next to the 25ms heartbeat:
// healthy nodes sit far inside it even under -race scheduling noise,
// and the partition phase must wait it out in real time.
const soakMaxStaleness = time.Second

// soakNode is one gatekeeper node of the federation plus its
// replication follower and the knobs the chaos phases pull.
type soakNode struct {
	idx      int
	res      *Resource
	follower *cluster.Follower
	metrics  *obs.Metrics
	stop     func()

	// partitioned makes new publisher dials fail; severing the live
	// stream is done by closing lastConn.
	partitioned atomic.Bool
	connMu      sync.Mutex
	lastConn    net.Conn
}

func (n *soakNode) partition() {
	n.partitioned.Store(true)
	n.connMu.Lock()
	if n.lastConn != nil {
		_ = n.lastConn.Close()
	}
	n.connMu.Unlock()
}

func (n *soakNode) heal() { n.partitioned.Store(false) }

func TestClusterSoak(t *testing.T) {
	fab, err := NewFabric("/O=Grid/CN=Cluster CA")
	if err != nil {
		t.Fatal(err)
	}
	kate, err := fab.IssueUser("/O=Grid/CN=Kate")
	if err != nil {
		t.Fatal(err)
	}
	eve, err := fab.IssueUser("/O=Grid/CN=Eve")
	if err != nil {
		t.Fatal(err)
	}

	// The replication channel is mutually authenticated end to end: the
	// publisher holds a service credential followers pin, and followers
	// present service credentials of their own — exactly the production
	// wiring, so the chaos phases also soak the handshake path.
	pubCred, err := fab.IssueService("/O=Grid/CN=cluster-publisher")
	if err != nil {
		t.Fatal(err)
	}

	// The leader: a standalone publisher seeded with the policy and the
	// ticket secret every node must share.
	pub := cluster.NewPublisher(cluster.PublisherConfig{
		Heartbeat: 25 * time.Millisecond,
		Auth:      gsi.NewAuthenticator(pubCred, fab.Trust),
	})
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = pub.Serve(pl) }()
	t.Cleanup(pub.Close)
	pubAddr := pl.Addr().String()
	if _, err := pub.SetPolicy(soakSource, soakPolicy); err != nil {
		t.Fatal(err)
	}
	leaderRing, err := gsi.NewSecretRing(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if cur, ok := leaderRing.Current(); ok {
		pub.ShareSecret(cur)
	}

	// The federation: ONE scheduler and ONE job table for every node.
	shared := &federation{jobs: gram.NewJobTable(), cluster: jobcontrol.NewCluster(64)}
	gridMap := map[gsi.DN][]string{
		kate.Identity(): {"kate"},
		eve.Identity():  {"eve"},
	}

	// startNode builds node i: a follower replica (with a
	// chaos-instrumented publisher dial) wired into a callout-mode
	// resource as its Follower, with the shared ring.
	// addr pins the listen address ("" = ephemeral first start).
	startNode := func(i int, addr string) *soakNode {
		t.Helper()
		n := &soakNode{idx: i, metrics: obs.NewMetrics()}
		ring := gsi.NewFollowerSecretRing(time.Minute)
		nodeCred, err := fab.IssueService(fmt.Sprintf("/O=Grid/CN=cluster-node%d", i))
		if err != nil {
			t.Fatal(err)
		}
		dial := func(ctx context.Context, address string) (net.Conn, error) {
			if n.partitioned.Load() {
				return nil, errors.New("soak: partitioned from publisher")
			}
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", address)
			if err != nil {
				return nil, err
			}
			n.connMu.Lock()
			n.lastConn = c
			n.connMu.Unlock()
			return c, nil
		}
		n.follower = cluster.NewFollower(cluster.FollowerConfig{
			Addr:              pubAddr,
			Sources:           []string{soakSource},
			Ring:              ring,
			Retry:             resilience.Policy{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
			Dial:              dial,
			Auth:              gsi.NewAuthenticator(nodeCred, fab.Trust),
			PublisherIdentity: pubCred.Identity(),
			Metrics:           n.metrics,
		})
		ctx, cancel := context.WithCancel(context.Background())
		followDone := make(chan struct{})
		go func() {
			defer close(followDone)
			_ = n.follower.Run(ctx)
		}()

		res, err := fab.StartResource(ResourceConfig{
			Name:              fmt.Sprintf("node%d.cluster", i),
			Mode:              ModeCallout,
			Placement:         PlacementGatekeeper, // the recommended cluster placement
			GridMap:           gridMap,
			Follower:          n.follower,
			SessionTicketRing: ring,
			maxStaleness:      soakMaxStaleness,
			shared:            shared,
			Addr:              addr,
			Metrics:           n.metrics,
		})
		if err != nil {
			cancel()
			t.Fatalf("start node %d: %v", i, err)
		}
		n.res = res
		var stopOnce sync.Once
		n.stop = func() {
			stopOnce.Do(func() {
				res.Close()
				cancel()
				<-followDone
			})
		}
		t.Cleanup(n.stop)
		return n
	}

	nodes := make([]*soakNode, 3)
	for i := range nodes {
		nodes[i] = startNode(i, "")
	}
	addrs := []string{nodes[0].res.Addr, nodes[1].res.Addr, nodes[2].res.Addr}
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := n.follower.WaitReady(ctx); err != nil {
			t.Fatalf("node %d never synced: %v", n.idx, err)
		}
		cancel()
	}

	waitFor := func(what string, d time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// newFailoverClient builds a client that knows all three nodes.
	newFailoverClient := func(cred *gsi.Credential) *gram.Client {
		t.Helper()
		proxy, err := gsi.Delegate(cred, time.Hour, false)
		if err != nil {
			t.Fatal(err)
		}
		c := gram.NewClient(addrs[0], proxy, fab.Trust)
		c.SetFailover(addrs...)
		c.SetRetryPolicy(resilience.Policy{Attempts: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
		t.Cleanup(c.Close)
		return c
	}

	// ---- traffic ----
	var (
		kateOK       atomic.Uint64 // successful permitted submits
		lastContact  atomic.Value  // a recent Kate job contact (string)
		stopTraffic  = make(chan struct{})
		stopKateSub  atomic.Bool // phase 5 stops new Kate submits before the revocation
		trafficGroup sync.WaitGroup
	)
	lastContact.Store("")

	kateClients := make([]*gram.Client, 3)
	for i := range kateClients {
		kateClients[i] = newFailoverClient(kate)
	}
	for _, c := range kateClients {
		c := c
		trafficGroup.Add(1)
		go func() {
			defer trafficGroup.Done()
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				if !stopKateSub.Load() {
					if contact, err := c.Submit(soakJob, ""); err == nil {
						kateOK.Add(1)
						lastContact.Store(contact)
						// Manage the job through whichever node answers,
						// then cancel so the shared scheduler never fills.
						_, _ = c.Status(contact)
						_ = c.Cancel(contact)
					}
				} else if contact := lastContact.Load().(string); contact != "" {
					_, _ = c.Status(contact)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Eve's stream is the spurious-permit detector: the policy NEVER
	// grants her anything, so through every chaos phase a nil error is
	// an authorization hole.
	eveClient := newFailoverClient(eve)
	trafficGroup.Add(1)
	go func() {
		defer trafficGroup.Done()
		for {
			select {
			case <-stopTraffic:
				return
			default:
			}
			if contact, err := eveClient.Submit(soakJob, ""); err == nil {
				t.Errorf("SPURIOUS PERMIT: ungranted user admitted, contact %s", contact)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	waitFor("baseline traffic", 5*time.Second, func() bool { return kateOK.Load() >= 5 })

	// ---- phase 1: kill the primary node, clients fail over and RESUME ----
	before := kateOK.Load()
	nodes[0].stop()
	waitFor("submissions to keep completing after the node kill", 10*time.Second, func() bool {
		return kateOK.Load() >= before+5
	})
	waitFor("a client to resume its GSI session on a surviving node", 10*time.Second, func() bool {
		for _, c := range kateClients {
			if c.Resumed() {
				return true
			}
		}
		return false
	})

	// Restart the node IN PLACE (same address, so failover lists stay
	// valid) with a fresh follower; it resyncs and rejoins.
	nodes[0] = startNode(0, addrs[0])
	{
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := nodes[0].follower.WaitReady(ctx); err != nil {
			t.Fatalf("restarted node never resynced: %v", err)
		}
		cancel()
	}
	pinned0, err := nodes[0].res.Client(kate)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned0.Close()
	waitFor("the restarted node to serve again", 10*time.Second, func() bool {
		contact, err := pinned0.Submit(soakJob, "")
		if err != nil {
			return false
		}
		_ = pinned0.Cancel(contact)
		return true
	})

	// ---- phase 2: partition a follower; it must fail CLOSED, not open ----
	target := nodes[2]
	target.partition()
	// Give the replication stream its fault-injected last gasp so the
	// disconnect path (not just the dial path) is exercised: the next
	// read on a wrapped conn would reset — here the close above has
	// already severed it; the faultinject wrapper documents the same
	// failure class for the GSI side below.
	time.Sleep(soakMaxStaleness + 300*time.Millisecond)

	pinned2, err := target.res.Client(kate)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned2.Close()
	if _, err := pinned2.Submit(soakJob, ""); !gram.IsAuthorizationFailure(err) {
		t.Errorf("startup on a stale partitioned node = %v, want the hard fail-closed CodeAuthorizationFailure", err)
	}
	if contact := lastContact.Load().(string); contact != "" {
		if _, err := pinned2.Status(contact); !gram.IsAuthorizationUnavailable(err) {
			t.Errorf("management on a stale partitioned node = %v, want the retryable CodeAuthorizationUnavailable", err)
		}
	}
	if target.metrics.ClusterStaleRefusals.Load() == 0 {
		t.Error("staleness guard refused nothing on a partitioned node")
	}

	// Heal: the follower reconnects by itself and the node serves again.
	target.heal()
	waitFor("the healed node to serve again", 10*time.Second, func() bool {
		contact, err := pinned2.Submit(soakJob, "")
		if err != nil {
			return false
		}
		_ = pinned2.Cancel(contact)
		return true
	})

	// ---- phase 3: publish a revocation; every live node enforces it ----
	stopKateSub.Store(true) // stop racing submits, keep management traffic
	time.Sleep(50 * time.Millisecond)
	epochR, err := pub.SetPolicy(soakSource, soakPolicyRevoked)
	if err != nil {
		t.Fatal(err)
	}
	waitFor("all nodes to apply the revocation epoch", soakMaxStaleness+2*time.Second, func() bool {
		for _, n := range nodes {
			if n.follower.Epoch() < epochR {
				return false
			}
		}
		return true
	})
	for _, n := range nodes {
		pinned, err := n.res.Client(kate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pinned.Submit(soakJob, ""); !gram.IsAuthorizationDenied(err) {
			t.Errorf("node %d after revocation epoch %d: submit = %v, want authorization denial", n.idx, epochR, err)
		}
		pinned.Close()
	}

	// ---- phase 4: RESTART the publisher with edited policy files ----
	// The documented rollout path: kill the admin-host publisher and
	// start a fresh one (new incarnation, epoch counter back at 0)
	// seeded from the edited files — here the re-grant of Kate's start
	// right. Surviving followers sit at a higher pre-restart epoch, so
	// this phase proves they adopt the new incarnation's lower epochs
	// instead of silently discarding them while heartbeats keep their
	// staleness clocks fresh.
	pub.Close()
	pub2 := cluster.NewPublisher(cluster.PublisherConfig{
		Heartbeat: 25 * time.Millisecond,
		Auth:      gsi.NewAuthenticator(pubCred, fab.Trust),
	})
	epochG, err := pub2.SetPolicy(soakSource, soakPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if epochG >= epochR {
		t.Fatalf("restarted publisher minted epoch %d, expected a restart below %d", epochG, epochR)
	}
	if cur, ok := leaderRing.Current(); ok {
		pub2.ShareSecret(cur)
	}
	var pl2 net.Listener
	waitFor("the publisher address to be rebindable", 5*time.Second, func() bool {
		pl2, err = net.Listen("tcp", pubAddr)
		return err == nil
	})
	go func() { _ = pub2.Serve(pl2) }()
	t.Cleanup(pub2.Close)
	for _, n := range nodes {
		n := n
		pinned, err := n.res.Client(kate)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(fmt.Sprintf("node %d to enforce the restarted publisher's re-grant", n.idx),
			soakMaxStaleness+5*time.Second, func() bool {
				contact, err := pinned.Submit(soakJob, "")
				if err != nil {
					return false
				}
				_ = pinned.Cancel(contact)
				return true
			})
		pinned.Close()
	}

	close(stopTraffic)
	trafficGroup.Wait()

	// The GSI-side failure class faultinject models (reset mid-
	// handshake) is what phase 1's kill produced at the socket level;
	// assert the wrapper itself stays deterministic so the soak's
	// chaos is reproducible.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := faultinject.NewConn(a, 1, 0)
	if _, err := fc.Read(make([]byte, 1)); err == nil {
		t.Error("faultinject conn did not reset on schedule")
	}

	t.Logf("soak: %d permitted submissions completed across kills, restarts, partition and revocation", kateOK.Load())
}
