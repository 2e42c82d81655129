package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridauth"
	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/gridftp"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/mds"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/workload"
)

// clusterCPUs is deliberately far above anything the workloads occupy: no
// job ever queues, so the runs measure authorization and not the
// discrete-event scheduler's queue sort (checkIdle asserts it).
const clusterCPUs = 1 << 22

const resourceName = "bench.grid.test"

// ident is one synthetic user and its client-side state. An identity
// belongs to one client, so none of it needs locking.
type ident struct {
	dn      gsi.DN
	proxy   *gsi.Credential
	gram    *gram.Client       // pooled client (warm and resume modes)
	ftp     *gridftp.Client    // pooled client (warm mode)
	auth    *gsi.Authenticator // the traced run's own resuming handshaker
	contact string             // the identity's live job, if any
}

// setupParts are the phases of setup_s.
type setupParts struct {
	Policy, Stack, Fabricate, Warmup time.Duration
}

func (p setupParts) total() time.Duration { return p.Policy + p.Stack + p.Fabricate + p.Warmup }

// stack is the deployment under test: one configuration, no switches.
// Callout mode, Job-Manager placement, two policy sources under
// require-all-permit, the production audit pipeline into a directory.
type stack struct {
	spec      *workloadSpec
	fab       *gridauth.Fabric
	res       *gridauth.Resource
	metrics   *obs.Metrics
	gmap      *gridmap.Map
	community *policy.Store
	local     *policy.Store
	auditLog  *audit.Log
	auditDir  string
	ftpSrv    *gridftp.Server
	ftpAddr   string
	ftpDone   chan struct{}
	httpSrv   *http.Server
	httpDone  chan struct{}
	scrapeURL string
	query     func(*core.Request, mds.Query) ([]mds.Record, core.Decision)
	ids       []*ident
	seed      int64
	parts     setupParts
}

// newStack builds and starts the deployment for a workload with nIdent
// fabricated identities, writing the audit log under auditDir (which must
// not exist yet). Warm-up is the caller's: it needs an executor.
func newStack(spec *workloadSpec, seed int64, nIdent int, auditDir string) (*stack, error) {
	t0 := time.Now()
	communityPol, err := communityPolicy(spec.Shape)
	if err != nil {
		return nil, err
	}
	localPol, err := localPolicy()
	if err != nil {
		return nil, err
	}
	st := &stack{
		spec:      spec,
		seed:      seed,
		metrics:   obs.NewMetrics(),
		gmap:      gridmap.New(),
		community: policy.NewStore(communityPol),
		local:     policy.NewStore(localPol),
		auditDir:  auditDir,
	}
	if err := checkExpectedOutcomes(spec.Shape, communityPol, localPol); err != nil {
		return nil, err
	}
	t1 := time.Now()
	st.parts.Policy = t1.Sub(t0)

	if err := st.start(); err != nil {
		st.Close()
		return nil, err
	}
	t2 := time.Now()
	st.parts.Stack = t2.Sub(t1)

	if err := st.fabricate(nIdent); err != nil {
		st.Close()
		return nil, err
	}
	st.parts.Fabricate = time.Since(t2)
	return st, nil
}

func (st *stack) start() error {
	var err error
	if st.fab, err = gridauth.NewFabric("/O=Grid/CN=Bench CA"); err != nil {
		return err
	}
	sink, err := audit.NewDirSink(st.auditDir)
	if err != nil {
		return err
	}
	if st.auditLog, err = audit.NewPipeline(audit.Config{Sink: sink, Metrics: st.metrics}); err != nil {
		return err
	}
	stores := []*policy.Store{st.community, st.local}
	bootstrap := gsi.DN(workload.P12OrgPrefix + "/CN=bench-bootstrap")
	st.res, err = st.fab.StartResource(gridauth.ResourceConfig{
		Name:          resourceName,
		CPUs:          clusterCPUs,
		Mode:          gridauth.ModeCallout,
		GridMap:       map[gsi.DN][]string{bootstrap: {account}},
		SharedGridMap: st.gmap,
		PolicyStores:  stores,
		AuditLog:      st.auditLog,
		Metrics:       st.metrics,
		ConnWorkers:   8,
	})
	if err != nil {
		return err
	}
	for _, s := range stores {
		pdp := &core.StorePDP{Store: s}
		st.res.Registry.Bind(gridftp.CalloutGridFTP, pdp)
		st.res.Registry.Bind(mds.CalloutMDS, pdp)
	}

	ftpCred, err := st.fab.IssueService("/O=Grid/CN=gridftp/" + resourceName)
	if err != nil {
		return err
	}
	if st.ftpSrv, err = gridftp.NewServer(ftpCred, st.fab.Trust, st.res.Registry, gridftp.NewStore()); err != nil {
		return err
	}
	st.ftpSrv.SetAudit(st.auditLog)
	ftpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.ftpAddr = ftpL.Addr().String()
	st.ftpDone = make(chan struct{})
	go func() {
		defer close(st.ftpDone)
		_ = st.ftpSrv.Serve(ftpL) // returns nil on Close; an accept error ends the run through failed ops
	}()

	dir := mds.NewDirectory()
	if err := dir.Register(mds.Record{Name: resourceName, Contact: st.res.Addr, TotalCPUs: clusterCPUs, FreeCPUs: clusterCPUs}); err != nil {
		return err
	}
	st.query = mds.QueryPDP(st.res.Registry, dir, st.auditLog)

	// Counters are read the way an operator's collector reads them, so the
	// cross-checks cover the exporter too.
	httpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.httpSrv = &http.Server{Handler: obs.NewServeMux(st.metrics, nil)}
	st.scrapeURL = "http://" + httpL.Addr().String() + "/metrics"
	st.httpDone = make(chan struct{})
	go func() {
		defer close(st.httpDone)
		_ = st.httpSrv.Serve(httpL) // ErrServerClosed on Close; a dead exporter fails the scrape
	}()
	return nil
}

// fabricate issues n deterministic CA → user → proxy chains and grid-maps
// them, in parallel on every core, before anything is timed.
func (st *stack) fabricate(n int) error {
	st.ids = make([]*ident, n)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				id, err := st.issue(i)
				if err != nil {
					errs[c] = err
					return
				}
				st.ids[i] = id
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (st *stack) issue(i int) (*ident, error) {
	dn, proxy, err := st.chain(i)
	if err != nil {
		return nil, err
	}
	st.gmap.Add(dn, account)
	return &ident{dn: dn, proxy: proxy}, nil
}

// chain fabricates identity i's CA → user → 12h proxy chain, deterministic
// in (seed, i).
func (st *stack) chain(i int) (gsi.DN, *gsi.Credential, error) {
	dn := workload.P12Subject(st.spec.Shape, i, policyRules)
	label := strconv.Itoa(i)
	user, err := st.fab.CA.IssueWithKey(dn, gsi.KindUser, gsi.KeyFromSeed(st.seed, "user", label))
	if err != nil {
		return "", nil, fmt.Errorf("fabricate user %d: %w", i, err)
	}
	proxy, err := gsi.DelegateWithKey(user, 12*time.Hour, false, gsi.KeyFromSeed(st.seed, "proxy", label))
	if err != nil {
		return "", nil, fmt.Errorf("fabricate proxy %d: %w", i, err)
	}
	return dn, proxy, nil
}

// Close stops every client and server of the stack and waits for them.
// The audit log is closed last so that it seals what the servers wrote.
func (st *stack) Close() error {
	for _, id := range st.ids {
		if id == nil {
			continue
		}
		if id.gram != nil {
			id.gram.Close()
		}
		if id.ftp != nil {
			id.ftp.Close()
		}
	}
	if st.httpSrv != nil {
		_ = st.httpSrv.Close() // only closes listeners and idle connections
		<-st.httpDone
	}
	if st.ftpSrv != nil && st.ftpDone != nil {
		st.ftpSrv.Close()
		<-st.ftpDone
	}
	if st.res != nil {
		st.res.Close()
	}
	if st.auditLog != nil {
		return st.auditLog.Close()
	}
	return nil
}

// counters is one scrape of /metrics.
type counters map[string]float64

func (st *stack) scrape() (counters, error) {
	resp, err := http.Get(st.scrapeURL)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	out := make(counters)
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

func (c counters) decisions() float64 {
	return c["authz_decisions_permit_total"] + c["authz_decisions_deny_total"] +
		c["authz_decisions_error_total"] + c["authz_decisions_not_applicable_total"]
}

// checkIdle asserts the scheduler never queued: every live job holds its
// two CPUs, so free CPUs account for exactly the jobs still running.
func (st *stack) checkIdle() error {
	running := 0
	for _, j := range st.res.Cluster.Jobs() {
		if !j.State.Terminal() {
			running++
			if j.StartedAt.IsZero() {
				return fmt.Errorf("job %s is queued: the scheduler is part of the measurement", j.ID)
			}
		}
	}
	total, free := st.res.Cluster.CPUs()
	if total != clusterCPUs || free != total-2*running {
		return fmt.Errorf("cluster has %d of %d CPUs free with %d jobs running", free, total, running)
	}
	return nil
}

// verifyAudit checks the sealed audit directory: the hash chain verifies
// and holds exactly one record per decision the stack ever made.
func (st *stack) verifyAudit(decisions float64) (bytesPerRecord float64, err error) {
	rep, err := audit.VerifyDir(st.auditDir, nil)
	if err != nil {
		return 0, fmt.Errorf("audit verification: %w", err)
	}
	if rep.Open != 0 || rep.Records == 0 || float64(rep.Records) != decisions {
		return 0, fmt.Errorf("audit log holds %d sealed and %d open records for %.0f decisions", rep.Records, rep.Open, decisions)
	}
	entries, err := os.ReadDir(st.auditDir)
	if err != nil {
		return 0, err
	}
	var size int64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".jsonl") {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			size += info.Size()
		}
	}
	return float64(size) / float64(rep.Records), nil
}
