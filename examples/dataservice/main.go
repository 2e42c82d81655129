// Dataservice demonstrates the paper's concluding direction — the same
// pluggable authorization mechanism in other Globus components: a
// GridFTP-style file service and an MDS-style discovery directory, both
// behind callout-configured policy, plus decision auditing.
//
//	go run ./examples/dataservice
package main

import (
	"fmt"
	"log"
	"net"
	"os"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gridftp"
	"gridauth/internal/gsi"
	"gridauth/internal/mds"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

const sitePolicy = `
# Discovery: any /O=Grid identity may query the directory.
/O=Grid: &(action = information)(service = mds)

# Data: the public area is world-readable; Alice owns her home.
/O=Grid: &(action = get list)(dir = /public)
/O=Grid/CN=Alice:
  &(action = get put list)(dir = /home/alice)(size<=1048576)
  &(action = delete)(dir = /home/alice)
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ca, err := gsi.NewCA("/O=Grid/CN=Data CA")
	if err != nil {
		return err
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	alice, err := ca.Issue("/O=Grid/CN=Alice", gsi.KindUser)
	if err != nil {
		return err
	}
	bob, err := ca.Issue("/O=Grid/CN=Bob", gsi.KindUser)
	if err != nil {
		return err
	}
	svc, err := ca.Issue("/O=Grid/CN=gridftp/data.anl.gov", gsi.KindService)
	if err != nil {
		return err
	}

	// One callout registry serves every component, and each component's
	// enforcement point audits the decisions it acts on into one log.
	reg := core.NewRegistry()
	sitePDP := &core.PolicyPDP{Policy: policy.MustParse(sitePolicy, "site")}
	auditLog, err := audit.NewPipeline(audit.Config{Capacity: 256})
	if err != nil {
		return err
	}
	defer auditLog.Close()
	reg.Bind(gridftp.CalloutGridFTP, sitePDP)
	reg.Bind(mds.CalloutMDS, sitePDP)

	// Discovery: the data service registers itself.
	directory := mds.NewDirectory()
	store := gridftp.NewStore()
	store.Put("/public/dataset-42.h5", []byte("plasma profiles"))
	server, err := gridftp.NewServer(svc, trust, reg, store)
	if err != nil {
		return err
	}
	server.SetAudit(auditLog)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = server.Serve(l) }()
	defer func() { server.Close(); <-done }()
	if err := directory.Register(mds.Record{
		Name: "data.anl.gov", Contact: l.Addr().String(), TotalCPUs: 0, VOs: []string{"NFC"},
	}); err != nil {
		return err
	}

	// Alice discovers the service (an authorized MDS query)...
	query := mds.QueryPDP(reg, directory, auditLog)
	req := &core.Request{Subject: alice.Identity(), Action: policy.ActionInformation}
	req.Spec = rsl.NewSpec().Set("service", "mds")
	records, decision := query(req, mds.Query{VO: "NFC"})
	if decision.Effect != core.Permit || len(records) == 0 {
		return fmt.Errorf("discovery failed: %s", decision.Reason)
	}
	fmt.Println("discovered data service at", records[0].Contact)

	// ...and uses it under policy.
	ac := gridftp.NewClient(records[0].Contact, alice, trust)
	defer ac.Close()
	data, err := ac.Get("/public/dataset-42.h5")
	if err != nil {
		return err
	}
	fmt.Printf("alice fetched %d bytes from the public area\n", len(data))
	if err := ac.Put("/home/alice/analysis.txt", []byte("T_e peaked")); err != nil {
		return err
	}
	fmt.Println("alice stored her analysis")

	bc := gridftp.NewClient(records[0].Contact, bob, trust)
	defer bc.Close()
	if _, err := bc.Get("/home/alice/analysis.txt"); err != nil {
		fmt.Println("bob reading alice's home denied:", err)
	}

	// The audit trail names every decision.
	fmt.Println("\naudit trail:")
	stats := auditLog.Stats()
	fmt.Printf("  decisions: %v\n", stats)
	for _, r := range auditLog.Denials() {
		fmt.Printf("  DENY %s %s: %s\n", r.Subject, r.Action, r.Reason)
	}
	return auditLog.WriteJSONL(os.Stdout)
}
