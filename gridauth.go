// Package gridauth is the public entry point of this library: a
// fine-grain authorization system for Grid resource management,
// reproducing Keahey, Welch, Lang, Liu and Meder, "Fine-Grain
// Authorization Policies in the GRID: Design and Implementation"
// (Middleware 2003).
//
// The package wires the subsystems — simulated GSI, grid-mapfile, the
// RSL-based policy engine, the authorization callout framework, GRAM
// (Gatekeeper + Job Manager), a local scheduler, dynamic accounts and
// sandbox enforcement — into two concepts:
//
//   - a Fabric: a trust domain with a certificate authority, users and
//     virtual organizations;
//   - Resources: GRAM endpoints started on the fabric, each with its own
//     grid-mapfile, policies, authorization mode and local scheduler.
//
// A minimal end-to-end deployment:
//
//	fab, _ := gridauth.NewFabric("/O=Grid/CN=Example CA")
//	alice, _ := fab.IssueUser("/O=Grid/CN=Alice")
//	res, _ := fab.StartResource(gridauth.ResourceConfig{
//	    Name:     "cluster.example.org",
//	    CPUs:     16,
//	    Mode:     gridauth.ModeCallout,
//	    GridMap:  map[gsi.DN][]string{alice.Identity(): {"alice"}},
//	    VOPolicy: `/O=Grid/CN=Alice: &(action = start)(executable = sim)(count<8)`,
//	})
//	defer res.Close()
//	client, _ := res.Client(alice)
//	contact, err := client.Submit(`&(executable=sim)(count=4)`, "")
//
// Lower-level control is available from the internal packages through
// the fields this package exposes (Registry, Cluster, Accounts, ...).
package gridauth

import (
	"errors"
	"fmt"
	"net"
	"time"

	"gridauth/internal/accounts"
	"gridauth/internal/allocation"
	"gridauth/internal/audit"
	"gridauth/internal/cluster"
	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/policy/analyze"
	"gridauth/internal/sandbox"
	"gridauth/internal/vo"
)

// Mode selects the authorization model of a resource.
type Mode = gram.AuthzMode

// Authorization modes.
const (
	// ModeLegacy is stock GT2: grid-mapfile admission, initiator-only
	// management (the paper's §4 baseline).
	ModeLegacy = gram.AuthzLegacy
	// ModeCallout is the paper's extension: fine-grain policies
	// evaluated through authorization callouts.
	ModeCallout = gram.AuthzCallout
)

// Placement selects where the policy evaluation point lives in callout
// mode (§6.2).
type Placement = gram.Placement

// PEP placements.
const (
	// PlacementJobManager evaluates policy in the Job Manager (the
	// paper's design).
	PlacementJobManager = gram.PlacementJM
	// PlacementGatekeeper evaluates policy in the Gatekeeper (the
	// hardened alternative).
	PlacementGatekeeper = gram.PlacementGatekeeper
)

// Fabric is a Grid trust domain: one certificate authority, its trust
// store, and the identities and VOs issued within it.
type Fabric struct {
	// CA is the fabric's certificate authority.
	CA *gsi.CA
	// Trust holds the fabric's trust anchors.
	Trust *gsi.TrustStore
}

// NewFabric creates a trust domain rooted at a new CA with the given
// subject DN.
func NewFabric(caSubject string) (*Fabric, error) {
	ca, err := gsi.NewCA(gsi.DN(caSubject))
	if err != nil {
		return nil, fmt.Errorf("gridauth: create CA: %w", err)
	}
	return &Fabric{CA: ca, Trust: gsi.NewTrustStore(ca.Certificate())}, nil
}

// IssueUser issues a user credential for the DN.
func (f *Fabric) IssueUser(dn string) (*gsi.Credential, error) {
	return f.CA.Issue(gsi.DN(dn), gsi.KindUser)
}

// IssueService issues a service credential for the DN.
func (f *Fabric) IssueService(dn string) (*gsi.Credential, error) {
	return f.CA.Issue(gsi.DN(dn), gsi.KindService)
}

// NewVO creates a virtual organization with a fabric-issued signing
// credential.
func (f *Fabric) NewVO(name, dn string) (*vo.VO, error) {
	cred, err := f.IssueService(dn)
	if err != nil {
		return nil, fmt.Errorf("gridauth: issue VO credential: %w", err)
	}
	return vo.New(name, cred), nil
}

// ResourceConfig describes a GRAM resource to start on a fabric.
type ResourceConfig struct {
	// Name is the resource's host name (used in its service DN).
	Name string
	// CPUs sizes the local scheduler (default 16).
	CPUs int
	// Mode selects legacy GT2 or callout authorization (default legacy).
	Mode Mode
	// Placement selects the PEP location in callout mode (default the
	// Job Manager, as in the paper).
	Placement Placement
	// GridMap maps Grid identities to local accounts. Accounts named
	// here are created automatically.
	GridMap map[gsi.DN][]string
	// SharedGridMap, when set, is used as the resource's grid-mapfile
	// instead of a private one (GridMap entries are still added to it).
	// The caller keeps the handle and may add identities while the
	// resource serves — the load harness (internal/loadgen) registers
	// its synthetic identities lazily this way, so a million-identity
	// run only materializes the identities traffic actually samples.
	SharedGridMap *gridmap.Map
	// VOPolicy and LocalPolicy are policy texts in the paper's language.
	// A callout-mode resource with nothing bound to either callout type
	// by the time it starts is an error: it could only ever deny.
	VOPolicy    string
	LocalPolicy string
	// PolicyStores binds runtime-mutable policy stores into the callout
	// chain (core.StorePDP), one per administrative source. Every
	// request is decided by the live chain, so whoever replaces the
	// store's policy is enforced on the very next request.
	PolicyStores []*policy.Store
	// Follower makes the resource a cluster follower node
	// (docs/CLUSTER.md): its chain starts with a cluster.StalenessGuard
	// over the follower, then one replicated store per
	// Follower.Sources(), bound like PolicyStores. The guard comes
	// FIRST so that a node past MaxStaleness answers Error before a
	// stale policy can answer Permit or Deny. The caller runs the
	// follower.
	Follower *cluster.Follower
	// MaxStaleness is the guard's bound (0 selects
	// cluster.DefaultMaxStaleness).
	MaxStaleness time.Duration
	// VOs whose attribute assertions the resource accepts. For each VO a
	// membership PDP (assertion + jobtag entitlement check) is added to
	// the callout chain.
	VOs []*vo.VO
	// AssertionIssuers are additional certificates whose signed
	// assertions the gatekeeper accepts and verifies (e.g. a CAS signing
	// certificate), without adding a membership gate.
	AssertionIssuers []*gsi.Certificate
	// ExtraPDPs are appended to the callout chain (Akenti, CAS, custom).
	ExtraPDPs []core.PDP
	// Allocation, when set, enforces the resource provider's coarse
	// per-VO budget (§2): an allocation PDP is appended LAST in the
	// callout chain (so it only reserves once every other source has
	// accepted), reservations follow jobs into the scheduler, and
	// terminal jobs commit their actual usage back to the tracker.
	Allocation *allocation.Tracker
	// DynamicAccounts enables a pool of dynamicPoolSize on-the-fly
	// accounts for users without grid-mapfile entries.
	DynamicAccounts bool
	// AuditLog, when set, receives the resource's authorization audit
	// records, including circuit-breaker state transitions.
	AuditLog *audit.Log
	// Metrics, when set, receives the resource's observability counters
	// and latency histograms (docs/OBSERVABILITY.md): decision counts by
	// effect, retries, breaker transitions, handshake
	// and connection gauges.
	Metrics *obs.Metrics
	// DecisionTraces, when set, becomes the registry's trace store: it
	// retains a per-request decision trace (one span per PDP evaluated)
	// for every request a service enforces through the resource's
	// Registry — GRAM, and GridFTP and MDS bound to it — retrievable by
	// the RequestID stamped on audit records.
	DecisionTraces *obs.TraceStore
	// Sandbox attaches a kill-on-violation sandbox monitor to the
	// resource's scheduler.
	Sandbox bool
	// TamperJMI simulates the §6.2 user-tampered job manager.
	TamperJMI bool
	// SessionTicketRing, when set, seals and redeems resumption tickets
	// with this (typically cluster-replicated) secret ring instead of a
	// process-private random secret, so a session ticket granted by one
	// federated node resumes on any node sharing the ring
	// (docs/CLUSTER.md).
	SessionTicketRing *gsi.SecretRing
	// Addr is the gatekeeper listen address (default "127.0.0.1:0").
	// Cluster nodes pin a stable address so a node restarted in place
	// keeps its slot in clients' failover lists.
	Addr string
	// SharedJobs and SharedCluster federate several resources into ONE:
	// every gatekeeper node of a cluster deployment is started with the
	// same gram.JobTable and the same jobcontrol.Cluster, so a job
	// submitted through any node can be managed through any other after
	// a failover. Nil gives the resource private instances (the normal
	// single-node case).
	SharedJobs    *gram.JobTable
	SharedCluster *jobcontrol.Cluster
	// ConnWorkers bounds the workers, and so the requests in progress,
	// of one multiplexed client connection (0 selects 8).
	ConnWorkers int
	// IdleTimeout closes authenticated connections with no client
	// traffic (0 selects 5m; negative disables).
	IdleTimeout time.Duration
}

// dynamicPoolSize is the number of dynamic accounts a resource with
// DynamicAccounts provisions.
const dynamicPoolSize = 32

// Resource is a running GRAM endpoint.
type Resource struct {
	// Addr is the TCP address of the gatekeeper, set by Start.
	Addr string
	// Gatekeeper is the GRAM daemon.
	Gatekeeper *gram.Gatekeeper
	// Cluster is the local job control system (drive it with Advance in
	// simulations).
	Cluster *jobcontrol.Cluster
	// Registry is the authorization callout registry.
	Registry *core.Registry
	// Accounts is the local account layer.
	Accounts *accounts.Manager
	// Monitor is the sandbox monitor when ResourceConfig.Sandbox is set.
	Monitor *sandbox.Monitor

	trust      *gsi.TrustStore
	listenAddr string
	callout    bool
	done       chan struct{} // closed when the accept loop ends; nil before Start
	serveErr   error         // the accept loop's result, readable once done is closed
}

// StartResource issues the resource's service credential on the fabric,
// then builds it (NewResource) and serves it (Resource.Start) on
// cfg.Addr.
func (f *Fabric) StartResource(cfg ResourceConfig) (*Resource, error) {
	if cfg.Name == "" {
		return nil, errors.New("gridauth: resource needs a name")
	}
	cred, err := f.IssueService("/O=Grid/CN=gatekeeper/" + cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("gridauth: issue gatekeeper credential: %w", err)
	}
	r, err := NewResource(cred, f.Trust, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Start(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// NewResource assembles a gatekeeper serving under cred and trusting
// trust. It is the one place a gatekeeper is wired — accounts, callout
// registry and its breaker sink, scheduler, GRAM daemon — whoever the
// caller is. Both callout chains are bound in this order: the cluster
// staleness guard, the text policies (VO, then local), the policy
// stores (replicated, then PolicyStores), the VOs' membership PDPs,
// ExtraPDPs, and the allocation PDP last.
//
// Nothing listens yet: a caller with more to configure (typically
// Registry.LoadConfig over a callout configuration file) does it on the
// returned resource and then calls Start.
func NewResource(cred *gsi.Credential, trust *gsi.TrustStore, cfg ResourceConfig) (*Resource, error) {
	if cfg.CPUs == 0 {
		cfg.CPUs = 16
	}

	gmap := cfg.SharedGridMap
	if gmap == nil {
		gmap = gridmap.New()
	}
	acctMgr := accounts.NewManager()
	seen := map[string]bool{}
	for id, accts := range cfg.GridMap {
		gmap.Add(id, accts...)
		for _, a := range accts {
			if !seen[a] {
				acctMgr.AddStatic(a, accounts.Rights{})
				seen[a] = true
			}
		}
	}
	if cfg.DynamicAccounts {
		acctMgr.ProvisionPool("grid", dynamicPoolSize)
	}

	reg := core.NewRegistry()
	core.RegisterBuiltinDrivers(reg)
	var pdps []core.PDP
	stores := cfg.PolicyStores
	if cfg.Follower != nil {
		pdps = append(pdps, &cluster.StalenessGuard{
			Follower:     cfg.Follower,
			MaxStaleness: cfg.MaxStaleness,
			Metrics:      cfg.Metrics,
		})
		var replicated []*policy.Store
		for _, source := range cfg.Follower.Sources() {
			replicated = append(replicated, cfg.Follower.Store(source))
		}
		stores = append(replicated, stores...)
	}
	// Every installed policy version is run through the static semantics
	// analyzer, counting its findings into policy_findings_total
	// (docs/POLICY-ANALYSIS.md): a rule that became shadowed or a grant
	// that became unsatisfiable by a reload shows up in monitoring even
	// when nobody reran the offline lint. Each source is analyzed alone,
	// so cross-source conflicts remain the cluster publisher's job.
	countFindings := func(compiled *policy.Compiled) {
		if cfg.Metrics != nil {
			cfg.Metrics.PolicyFindings.Add(uint64(len(analyze.Analyze(compiled).Findings)))
		}
	}
	for _, src := range []struct{ source, text string }{{"VO", cfg.VOPolicy}, {"local", cfg.LocalPolicy}} {
		if src.text == "" {
			continue
		}
		pol, err := policy.ParseString(src.text, src.source)
		if err != nil {
			return nil, fmt.Errorf("gridauth: %s policy: %w", src.source, err)
		}
		pdp := &core.PolicyPDP{Policy: pol}
		countFindings(pdp.Compiled()) // which also compiles at load, not on the first request
		pdps = append(pdps, pdp)
	}
	for _, st := range stores {
		pdps = append(pdps, &core.StorePDP{Store: st})
		if cfg.Metrics != nil {
			store := st
			analyzeStore := func() {
				_, compiled, _ := store.Snapshot()
				countFindings(compiled)
			}
			analyzeStore() // the initially-installed policy counts too
			store.OnChange(analyzeStore)
		}
	}
	var voCerts []*gsi.Certificate
	for _, v := range cfg.VOs {
		voCerts = append(voCerts, v.Certificate())
		pdps = append(pdps, v.MembershipPDP())
	}
	voCerts = append(voCerts, cfg.AssertionIssuers...)
	pdps = append(pdps, cfg.ExtraPDPs...)
	if cfg.Allocation != nil {
		pdps = append(pdps, &allocation.PDP{Tracker: cfg.Allocation, ReserveOnPermit: true})
	}
	for _, p := range pdps {
		reg.Bind(core.CalloutJobManager, p)
		reg.Bind(core.CalloutGatekeeper, p)
	}
	if cfg.Metrics != nil {
		reg.SetMetrics(cfg.Metrics)
	}
	reg.SetTraces(cfg.DecisionTraces)
	if cfg.AuditLog != nil {
		reg.SetBreakerSink(cfg.AuditLog.BreakerTransition)
	}
	cluster := cfg.SharedCluster
	if cluster == nil {
		cluster = jobcontrol.NewCluster(cfg.CPUs)
	}
	var monitor *sandbox.Monitor
	if cfg.Sandbox {
		monitor = sandbox.NewMonitor(cluster, true)
	}

	gramCfg := gram.Config{
		Credential:      cred,
		Trust:           trust,
		VOCerts:         voCerts,
		GridMap:         gmap,
		Accounts:        acctMgr,
		DynamicAccounts: cfg.DynamicAccounts,
		Registry:        reg,
		Mode:            cfg.Mode,
		Placement:       cfg.Placement,
		Cluster:         cluster,
		TamperJMI:       cfg.TamperJMI,
		TicketRing:      cfg.SessionTicketRing,
		Jobs:            cfg.SharedJobs,
		ConnWorkers:     cfg.ConnWorkers,
		IdleTimeout:     cfg.IdleTimeout,
		Audit:           cfg.AuditLog,
		Metrics:         cfg.Metrics,
	}
	if cfg.Allocation != nil {
		cfg.Allocation.Attach(cluster)
		gramCfg.OnJobStart = cfg.Allocation.Rebind
		gramCfg.OnJobAborted = func(contact string) { cfg.Allocation.Commit(contact, 0) }
	}
	gk, err := gram.NewGatekeeper(gramCfg)
	if err != nil {
		return nil, err
	}
	listenAddr := cfg.Addr
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	return &Resource{
		Gatekeeper: gk,
		Cluster:    cluster,
		Registry:   reg,
		Accounts:   acctMgr,
		Monitor:    monitor,
		trust:      trust,
		listenAddr: listenAddr,
		callout:    cfg.Mode == ModeCallout,
	}, nil
}

// Start listens on the configured address (setting Addr) and serves in
// the background until Close. Call it once, after any further
// configuration of Registry.
func (r *Resource) Start() error {
	if r.callout && !r.Registry.Configured(core.CalloutJobManager) && !r.Registry.Configured(core.CalloutGatekeeper) {
		return errors.New("gridauth: callout mode without any policy source would deny everything")
	}
	l, err := net.Listen("tcp", r.listenAddr)
	if err != nil {
		return fmt.Errorf("gridauth: listen: %w", err)
	}
	r.Addr = l.Addr().String()
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		r.serveErr = r.Gatekeeper.Serve(l)
	}()
	return nil
}

// Wait blocks until a started resource stops serving and returns why:
// nil after Close, the accept loop's error otherwise.
func (r *Resource) Wait() error {
	<-r.done
	return r.serveErr
}

// Close stops the resource and waits for its connections to drain.
func (r *Resource) Close() {
	r.Gatekeeper.Close()
	if r.done != nil {
		<-r.done
	}
}

// Client returns a GRAM client for the resource, authenticating with a
// fresh proxy delegated from cred and presenting the given assertions.
func (r *Resource) Client(cred *gsi.Credential, assertions ...*gsi.Assertion) (*gram.Client, error) {
	proxy, err := gsi.Delegate(cred, 12*time.Hour, false)
	if err != nil {
		return nil, fmt.Errorf("gridauth: delegate proxy: %w", err)
	}
	return gram.NewClient(r.Addr, proxy, r.trust, assertions...), nil
}
