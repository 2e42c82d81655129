package gridauth

import (
	"errors"
	"flag"
	"fmt"
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
	Listen         string
	State          string
	GridMap        string
	VOPolicy       string
	LocalPolicy    string
	CalloutConfig  string
	Mode           string
	Placement      string
	CPUs           int
	Dynamic        bool
	Tick           time.Duration
	ClusterPublish string
	ClusterFollow  string
	ConnWorkers    int
	MetricsAddr    string
	Pprof          bool
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
	fs.StringVar(&f.CalloutConfig, "callout-config", "", "callout configuration file: PDP bindings and \"options\" lines tuning their evaluation (callout mode only)")
	fs.StringVar(&f.Mode, "mode", "legacy", "authorization mode: legacy or callout")
	fs.StringVar(&f.Placement, "placement", "job-manager", "PEP placement: job-manager or gatekeeper")
	fs.IntVar(&f.CPUs, "cpus", 16, "cluster CPU count")
	fs.BoolVar(&f.Dynamic, "dynamic-accounts", false, "lease dynamic accounts for unmapped users")
	fs.DurationVar(&f.Tick, "tick", time.Second, "virtual-clock advance per wall-clock second")
	fs.StringVar(&f.ClusterPublish, "cluster-publish", "", "serve cluster replication (policy epochs + ticket secrets) to follower nodes on this address (leader role, docs/CLUSTER.md)")
	fs.StringVar(&f.ClusterFollow, "cluster-follow", "", "replicate policy and ticket secrets from the cluster publisher at this address (follower role)")
	fs.IntVar(&f.ConnWorkers, "conn-workers", 0, "max concurrent requests per multiplexed connection (0 = default 8)")
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
// An unknown -mode or -placement, and -callout-config in legacy mode,
// are refused: each would run another model than the one asked for.
func (f *GatekeeperFlags) ResourceConfig() (ResourceConfig, error) {
	cfg := ResourceConfig{
		CPUs:            f.CPUs,
		DynamicAccounts: f.Dynamic,
		Addr:            f.Listen,
		ConnWorkers:     f.ConnWorkers,
	}
	var ok bool
	if cfg.Mode, ok = map[string]Mode{"legacy": ModeLegacy, "callout": ModeCallout}[f.Mode]; !ok {
		return cfg, fmt.Errorf("-mode %q: want legacy or callout", f.Mode)
	}
	if cfg.Placement, ok = map[string]Placement{"job-manager": PlacementJobManager, "gatekeeper": PlacementGatekeeper}[f.Placement]; !ok {
		return cfg, fmt.Errorf("-placement %q: want job-manager or gatekeeper", f.Placement)
	}
	if cfg.Mode == ModeLegacy && f.CalloutConfig != "" {
		return cfg, errors.New("-callout-config needs -mode callout: legacy mode consults no callout")
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
// registry, on top of what the flags bound: its PDP lines add to the
// chains and its "options" lines tune them.
func (f *GatekeeperFlags) LoadCalloutConfig(reg *core.Registry) error {
	if f.CalloutConfig == "" {
		return nil
	}
	file, err := os.Open(f.CalloutConfig)
	if err != nil {
		return err
	}
	defer file.Close()
	return reg.LoadConfig(file)
}
