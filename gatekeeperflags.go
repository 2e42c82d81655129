package gridauth

import (
	"flag"
	"os"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
)

// GatekeeperFlags is cmd/gatekeeper's command line. It lives beside
// ResourceConfig so the translation between the two is one function the
// conformance suite can reach: a resource built from flags must behave
// exactly like one built through the API.
type GatekeeperFlags struct {
	Listen        string
	State         string
	GridMap       string
	VOPolicy      string
	LocalPolicy   string
	CalloutConfig string
	Mode          string
	Placement     string
	CPUs          int
	Dynamic       bool
	Tick          time.Duration
	// Callout is filled straight from the tuning flags; a
	// -callout-config "options" line overrides it per key and per
	// callout type.
	Callout             core.CalloutOptions
	TicketLifetime      time.Duration
	ClusterPublish      string
	ClusterFollow       string
	ClusterMaxStaleness time.Duration
	ClusterAuth         bool
	ConnWorkers         int
	HandshakeTimeout    time.Duration
	IdleTimeout         time.Duration
	MetricsAddr         string
	Pprof               bool
	// Audit holds the tamper-evident audit pipeline's flags
	// (docs/AUDIT.md); names, defaults and help live in
	// audit.FlagCatalog so the documented table cannot drift.
	Audit *audit.Flags
}

// RegisterGatekeeperFlags defines the gatekeeper's flags on fs.
func RegisterGatekeeperFlags(fs *flag.FlagSet) *GatekeeperFlags {
	f := &GatekeeperFlags{}
	fs.StringVar(&f.Listen, "listen", "127.0.0.1:7512", "address to listen on")
	fs.StringVar(&f.State, "state", "", "state directory for simulated GSI credentials (required)")
	fs.StringVar(&f.GridMap, "gridmap", "", "grid-mapfile path (required)")
	fs.StringVar(&f.VOPolicy, "vo-policy", "", "VO policy file")
	fs.StringVar(&f.LocalPolicy, "local-policy", "", "resource owner policy file")
	fs.StringVar(&f.CalloutConfig, "callout-config", "", "callout configuration file (alternative to -vo-policy/-local-policy)")
	fs.StringVar(&f.Mode, "mode", "legacy", "authorization mode: legacy or callout")
	fs.StringVar(&f.Placement, "placement", "job-manager", "PEP placement: job-manager or gatekeeper")
	fs.IntVar(&f.CPUs, "cpus", 16, "cluster CPU count")
	fs.BoolVar(&f.Dynamic, "dynamic-accounts", false, "lease dynamic accounts for unmapped users")
	fs.DurationVar(&f.Tick, "tick", time.Second, "virtual-clock advance per wall-clock second")
	fs.BoolVar(&f.Callout.Cache, "authz-cache", false, "cache callout decisions (sharded TTL decision cache)")
	fs.DurationVar(&f.Callout.CacheTTL, "authz-cache-ttl", 5*time.Second, "decision cache entry lifetime (capped at 60s)")
	fs.DurationVar(&f.Callout.PDPTimeout, "pdp-timeout", 0, "per-PDP callout deadline (overruns become authorization system failures; 0 disables)")
	fs.IntVar(&f.Callout.Retries, "authz-retries", 0, "extra attempts for a PDP answering transient Error (side-effecting PDPs never retry)")
	fs.DurationVar(&f.Callout.RetryBackoff, "authz-retry-backoff", 0, "base backoff between authorization retries (0 = default 25ms)")
	fs.BoolVar(&f.Callout.Breaker, "breaker", false, "trip a per-PDP circuit breaker on consecutive failures")
	fs.IntVar(&f.Callout.BreakerThreshold, "breaker-threshold", 0, "consecutive failures before the breaker opens (0 = default 5)")
	fs.DurationVar(&f.Callout.BreakerCooldown, "breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default 5s)")
	fs.DurationVar(&f.TicketLifetime, "ticket-lifetime", 0, "GSI session resumption ticket lifetime (0 = default 10m, negative disables resumption)")
	fs.StringVar(&f.ClusterPublish, "cluster-publish", "", "serve cluster replication (policy epochs + ticket secrets) to follower nodes on this address (leader role, docs/CLUSTER.md)")
	fs.StringVar(&f.ClusterFollow, "cluster-follow", "", "replicate policy and ticket secrets from the cluster publisher at this address (follower role)")
	fs.DurationVar(&f.ClusterMaxStaleness, "cluster-max-staleness", 0, "refuse to decide once the publisher has been silent this long (0 = default 15s; follower role)")
	fs.BoolVar(&f.ClusterAuth, "cluster-auth", true, "mutually authenticate the cluster replication channel with the node's GSI service credential; disable only when the replication port is confined to the trusted admin network")
	fs.IntVar(&f.ConnWorkers, "conn-workers", 0, "max concurrent requests per multiplexed connection (0 = default 8)")
	fs.DurationVar(&f.HandshakeTimeout, "handshake-timeout", 0, "GSI handshake deadline on accepted connections (0 = default 10s, negative disables)")
	fs.DurationVar(&f.IdleTimeout, "idle-timeout", 0, "idle connection timeout (0 = default 5m, negative disables)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve GET /metrics, /trace?id= and /traces on this address (empty disables observability)")
	fs.BoolVar(&f.Pprof, "pprof", false, "expose net/http/pprof handlers on the -metrics-addr server")
	f.Audit = audit.RegisterFlags(fs)
	return f
}

// ResourceConfig translates the parsed flags into the configuration
// NewResource takes: it reads the grid-mapfile and the policy files,
// turns observability on as a unit when -metrics-addr is set (metric
// counters and decision-trace retention, served from one endpoint) and
// builds the audit pipeline, which the caller must Close on shutdown so
// the final segment is sealed. A cluster role (SessionTicketRing,
// Follower) is the caller's to add: it needs the node's credential.
func (f *GatekeeperFlags) ResourceConfig() (ResourceConfig, error) {
	cfg := ResourceConfig{
		CPUs:                  f.CPUs,
		DynamicAccounts:       f.Dynamic,
		DynamicPoolSize:       32,
		Callout:               f.Callout,
		SessionTicketLifetime: f.TicketLifetime,
		MaxStaleness:          f.ClusterMaxStaleness,
		Addr:                  f.Listen,
		ConnWorkers:           f.ConnWorkers,
		HandshakeTimeout:      f.HandshakeTimeout,
		IdleTimeout:           f.IdleTimeout,
	}
	if f.Mode == "callout" {
		cfg.Mode = ModeCallout
	}
	if f.Placement == "gatekeeper" {
		cfg.Placement = PlacementGatekeeper
	}

	gmapFile, err := os.Open(f.GridMap)
	if err != nil {
		return cfg, err
	}
	cfg.SharedGridMap, err = gridmap.Parse(gmapFile)
	gmapFile.Close()
	if err != nil {
		return cfg, err
	}
	// Every mapped account exists as a static account.
	cfg.GridMap = make(map[gsi.DN][]string)
	for _, id := range cfg.SharedGridMap.Identities() {
		cfg.GridMap[id] = cfg.SharedGridMap.Accounts(id)
	}

	for _, src := range []struct {
		path string
		text *string
	}{{f.VOPolicy, &cfg.VOPolicy}, {f.LocalPolicy, &cfg.LocalPolicy}} {
		if src.path == "" {
			continue
		}
		text, err := os.ReadFile(src.path)
		if err != nil {
			return cfg, err
		}
		*src.text = string(text)
	}

	if f.MetricsAddr != "" {
		cfg.Metrics = obs.NewMetrics()
		cfg.DecisionTraces = obs.NewTraceStore(0)
	}
	cfg.AuditLog, err = f.Audit.Build(cfg.Metrics)
	return cfg, err
}

// LoadCalloutConfig applies -callout-config to a built resource's
// registry, on top of what the flags bound and tuned.
func (f *GatekeeperFlags) LoadCalloutConfig(reg *core.Registry) error {
	if f.CalloutConfig == "" || f.Mode != "callout" {
		return nil
	}
	file, err := os.Open(f.CalloutConfig)
	if err != nil {
		return err
	}
	defer file.Close()
	return reg.LoadConfig(file)
}
