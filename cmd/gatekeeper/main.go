// Command gatekeeper runs a GRAM resource: GSI-authenticated TCP
// endpoint, grid-mapfile admission, fine-grain policy callouts, a
// simulated cluster behind it.
//
// Because the GSI layer is simulated, the gatekeeper bootstraps its own
// trust fabric on first start: it creates a CA, its service credential,
// and a credential for every identity in the grid-mapfile, and writes
// them into the -state directory. The gramclient command reads the same
// directory, so a two-terminal demo is:
//
//	gatekeeper -listen 127.0.0.1:7512 -state /tmp/grid \
//	    -gridmap gridmap -vo-policy vo.policy -local-policy local.policy \
//	    -mode callout
//	gramclient -state /tmp/grid -user "/O=Grid/CN=Alice" \
//	    -server 127.0.0.1:7512 \
//	    submit "&(executable=sim)(count=2)(jobtag=demo)"
//
// The simulated cluster's virtual clock advances in real time: every
// wall-clock second advances the cluster by -tick (default 1s).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gridauth"
	clusterpkg "gridauth/internal/cluster"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal("gatekeeper: ", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gatekeeper", flag.ContinueOnError)
	flags := gridauth.RegisterGatekeeperFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if flags.State == "" || flags.GridMap == "" {
		return fmt.Errorf("-state and -gridmap are required")
	}
	if flags.Pprof && flags.MetricsAddr == "" {
		return fmt.Errorf("-pprof requires -metrics-addr")
	}
	if flags.ClusterPublish != "" && flags.ClusterFollow != "" {
		return fmt.Errorf("-cluster-publish and -cluster-follow are mutually exclusive: a node is either the leader or a follower")
	}

	cfg, err := flags.ResourceConfig()
	if err != nil {
		return err
	}
	// Every decision the daemon acts on is audited through the
	// asynchronous tamper-evident pipeline; Close on shutdown drains
	// the queue and seals the final segment so -audit-dir output is
	// always verifiable by cmd/auditverify.
	defer func() {
		if err := cfg.AuditLog.Close(); err != nil {
			log.Printf("gatekeeper: audit close: %v", err)
		}
	}()

	_, gkCred, trust, err := bootstrapFabric(flags.State, cfg.SharedGridMap)
	if err != nil {
		return err
	}

	// Cluster federation (docs/CLUSTER.md): the leader publishes its
	// policy files and ticket secret as replicated epochs; a follower
	// replaces file-based policy with replicated stores guarded by a
	// staleness bound, and redeems any cluster node's session tickets.
	// The replication channel carries those ticket-sealing secrets, so
	// both roles always authenticate it with the node's service
	// credential.
	clusterAuth := gsi.NewAuthenticator(gkCred, trust)
	if flags.ClusterPublish != "" {
		ring, err := gsi.NewSecretRing(gsi.DefaultSecretOverlap)
		if err != nil {
			return err
		}
		cfg.SessionTicketRing = ring
		pub := clusterpkg.NewPublisher(clusterpkg.PublisherConfig{Metrics: cfg.Metrics, Auth: clusterAuth})
		for _, src := range []struct{ source, text string }{{"VO", cfg.VOPolicy}, {"local", cfg.LocalPolicy}} {
			if src.text == "" {
				continue
			}
			if _, err := pub.SetPolicy(src.source, src.text); err != nil {
				return err
			}
		}
		if cur, ok := ring.Current(); ok {
			pub.ShareSecret(cur)
		}
		pl, err := net.Listen("tcp", flags.ClusterPublish)
		if err != nil {
			return err
		}
		go func() { _ = pub.Serve(pl) }()
		defer pub.Close()
		log.Printf("gatekeeper: cluster leader publishing on %s (epoch %d)", pl.Addr(), pub.Epoch())
	}
	if flags.ClusterFollow != "" {
		cfg.SessionTicketRing = gsi.NewFollowerSecretRing(gsi.DefaultSecretOverlap)
		cfg.Follower = clusterpkg.NewFollower(clusterpkg.FollowerConfig{
			Addr:    flags.ClusterFollow,
			Sources: []string{"VO", "local"},
			Ring:    cfg.SessionTicketRing,
			Metrics: cfg.Metrics,
			Auth:    clusterAuth,
		})
		followCtx, stopFollow := context.WithCancel(context.Background())
		go func() { _ = cfg.Follower.Run(followCtx) }()
		defer stopFollow()
		log.Printf("gatekeeper: cluster follower syncing from %s", flags.ClusterFollow)
	}

	res, err := gridauth.NewResource(gkCred, trust, cfg)
	if err != nil {
		return err
	}
	defer res.Close()
	if err := flags.LoadCalloutConfig(res.Registry); err != nil {
		return err
	}

	if flags.MetricsAddr != "" {
		mux := obs.NewServeMux(cfg.Metrics, cfg.DecisionTraces)
		if flags.Pprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		ml, err := net.Listen("tcp", flags.MetricsAddr)
		if err != nil {
			return err
		}
		msrv := &http.Server{Handler: mux}
		go func() { _ = msrv.Serve(ml) }()
		defer msrv.Close()
		log.Printf("gatekeeper: observability on http://%s/metrics (pprof=%v)", ml.Addr(), flags.Pprof)
	}

	if err := res.Start(); err != nil {
		return err
	}
	log.Printf("gatekeeper: listening on %s (mode=%s, placement=%s, cpus=%d)", res.Addr, flags.Mode, flags.Placement, flags.CPUs)

	// Advance the simulated cluster clock in real time.
	stopTicker := make(chan struct{})
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				res.Cluster.Advance(flags.Tick)
			case <-stopTicker:
				return
			}
		}
	}()
	defer func() {
		close(stopTicker)
		<-tickerDone
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- res.Wait() }()
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		log.Printf("gatekeeper: received %s, shutting down", s)
		return nil
	}
}

// bootstrapFabric creates (or reloads) the simulated trust fabric in the
// state directory: ca.cert, gatekeeper.cred, and users/<n>.cred for each
// grid-mapfile identity.
func bootstrapFabric(dir string, gmap *gridmap.Map) (*gsi.CA, *gsi.Credential, *gsi.TrustStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "users"), 0o700); err != nil {
		return nil, nil, nil, err
	}
	caCertPath := filepath.Join(dir, "ca.cert")
	caCredPath := filepath.Join(dir, "ca.cred")
	gkCredPath := filepath.Join(dir, "gatekeeper.cred")

	var (
		ca     *gsi.CA
		gkCred *gsi.Credential
	)
	if _, err := os.Stat(caCredPath); err == nil {
		// Existing fabric: a CA credential cannot be rehydrated into a
		// *gsi.CA (it holds unexported state), so a fresh start reuses
		// only the anchors and the gatekeeper credential; user
		// credentials must already exist.
		caCert, err := gsi.LoadCertificate(caCertPath)
		if err != nil {
			return nil, nil, nil, err
		}
		gkCred, err = gsi.LoadCredential(gkCredPath)
		if err != nil {
			return nil, nil, nil, err
		}
		return nil, gkCred, gsi.NewTrustStore(caCert), nil
	}

	ca, err := gsi.NewCA("/O=Grid/CN=Simulated Fabric CA", gsi.WithTTL(30*24*time.Hour))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := gsi.SaveCertificate(ca.Certificate(), caCertPath); err != nil {
		return nil, nil, nil, err
	}
	if err := gsi.SaveCredential(ca.Credential(), caCredPath); err != nil {
		return nil, nil, nil, err
	}
	gkCred, err = ca.Issue("/O=Grid/CN=gatekeeper/local", gsi.KindService)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := gsi.SaveCredential(gkCred, gkCredPath); err != nil {
		return nil, nil, nil, err
	}
	for i, id := range gmap.Identities() {
		cred, err := ca.Issue(id, gsi.KindUser)
		if err != nil {
			return nil, nil, nil, err
		}
		path := filepath.Join(dir, "users", fmt.Sprintf("user%03d.cred", i))
		if err := gsi.SaveCredential(cred, path); err != nil {
			return nil, nil, nil, err
		}
		log.Printf("gatekeeper: issued credential for %s -> %s", id, path)
	}
	return ca, gkCred, gsi.NewTrustStore(ca.Certificate()), nil
}
