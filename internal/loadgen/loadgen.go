package loadgen

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridauth"
	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/gridftp"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/mds"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
	"gridauth/internal/workload"
)

const (
	// scrapeInterval paces the /metrics sampler that derives peak
	// decisions/sec.
	scrapeInterval = 200 * time.Millisecond
	// maxOpenClients bounds pooled gram+gridftp clients (and so open
	// sockets): beyond it the oldest idle identity's clients are closed.
	// Its session state is dropped with them, so a re-touched identity
	// pays a full handshake again — the same cost an LRU'd session
	// cache imposes on a real gatekeeper's long-tail users.
	maxOpenClients = 1024
)

var loadPayload = []byte("p13-load-object")

// RunResult is one measured load run: a (point, repeat) cell of the
// experiment grid.
type RunResult struct {
	Point    string `json:"point"`
	Repeat   int    `json:"repeat"`
	Seed     int64  `json:"seed"`
	Requests int    `json:"requests"`
	OpenLoop bool   `json:"openLoop,omitempty"`

	// Client-side decision counts. Errors are transport or setup
	// failures that never reached (or never returned from) the decision
	// point and so are excluded from the cross-check.
	Permits uint64 `json:"permits"`
	Denies  uint64 `json:"denies"`
	Errors  uint64 `json:"errors"`

	// ServerDecisions is the sum of the four authz_decisions_*_total
	// counters scraped from the resource's /metrics endpoint after the
	// run; CrossCheckPct is its relative disagreement with the
	// client-side Permits+Denies, in percent.
	ServerDecisions uint64  `json:"serverDecisions"`
	CrossCheckPct   float64 `json:"crossCheckPct"`

	DurationSec         float64 `json:"durationSec"`
	Throughput          float64 `json:"throughput"` // completed ops/sec over the run
	PeakDecisionsPerSec float64 `json:"peakDecisionsPerSec"`

	// Latency percentiles in microseconds, computed from the exact
	// per-op samples (closed loop: service time; open loop: measured
	// from the scheduled arrival, so queueing delay — coordinated
	// omission — is included).
	P50Micros  float64 `json:"p50Micros"`
	P99Micros  float64 `json:"p99Micros"`
	P999Micros float64 `json:"p999Micros"`

	HandshakesFull    uint64 `json:"handshakesFull"`
	HandshakesResumed uint64 `json:"handshakesResumed"`

	// Identities is how many of the point's synthetic identities the
	// traffic actually materialized (fabrication is lazy).
	Identities int `json:"identities"`
}

// identity is one materialized synthetic user: a CA-issued user
// credential's 12h proxy, deterministic in (seed, index).
type identity struct {
	dn    gsi.DN
	proxy *gsi.Credential
}

// entry is the per-identity client pool slot. Its mutex is held for the
// full duration of an op, so ops on one identity serialize (concurrency
// comes from the identity population) and connection-mode churn can
// never race an in-flight request on the same clients.
type entry struct {
	mu      sync.Mutex
	gram    *gram.Client
	ftp     *gridftp.Client
	contact string
}

type harness struct {
	p    *Point
	seed int64

	fab     *gridauth.Fabric
	res     *gridauth.Resource
	metrics *obs.Metrics
	gmap    *gridmap.Map

	ftpSrv    *gridftp.Server
	ftpAddr   string
	ftpDone   chan struct{}
	httpSrv   *http.Server
	scrapeURL string

	query func(*core.Request, mds.Query) ([]mds.Record, core.Decision)

	idMu sync.Mutex
	ids  map[int]*identity

	poolMu sync.Mutex
	pool   map[int]*entry
	order  []int // pooled-client open order, for eviction

	permits atomic.Uint64
	denies  atomic.Uint64
	errs    atomic.Uint64
}

func newHarness(p *Point, seed int64) (*harness, error) {
	pol, err := BuildPolicy(p.Policy.Shape, p.Policy.Rules)
	if err != nil {
		return nil, err
	}
	st := policy.NewStore(pol)
	fab, err := gridauth.NewFabric("/O=Grid/CN=Load CA")
	if err != nil {
		return nil, err
	}
	h := &harness{
		p:       p,
		seed:    seed,
		fab:     fab,
		metrics: obs.NewMetrics(),
		gmap:    gridmap.New(),
		ids:     make(map[int]*identity),
		pool:    make(map[int]*entry),
	}
	// The bootstrap grid-mapfile entry exists to create the shared
	// local account; synthetic identities are added to the shared map
	// lazily as traffic materializes them.
	bootstrap := gsi.DN(workload.P12OrgPrefix + "/CN=load-bootstrap")
	h.res, err = fab.StartResource(gridauth.ResourceConfig{
		Name:          "load.grid.test",
		CPUs:          64,
		Mode:          gridauth.ModeCallout,
		GridMap:       map[gsi.DN][]string{bootstrap: {LoadAccount}},
		SharedGridMap: h.gmap,
		PolicyStores:  []*policy.Store{st},
		Metrics:       h.metrics,
		ConnWorkers:   p.Workers,
	})
	if err != nil {
		return nil, err
	}
	// The same store answers for the data and discovery services, so
	// every op kind exercises the one policy under test.
	pdp := &core.StorePDP{Store: st}
	h.res.Registry.Bind(mds.CalloutMDS, pdp)
	h.res.Registry.Bind(gridftp.CalloutGridFTP, pdp)

	ftpCred, err := fab.IssueService("/O=Grid/CN=gridftp/load.grid.test")
	if err != nil {
		h.Close()
		return nil, err
	}
	h.ftpSrv, err = gridftp.NewServer(ftpCred, fab.Trust, h.res.Registry, gridftp.NewStore())
	if err != nil {
		h.Close()
		return nil, err
	}
	ftpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	h.ftpAddr = ftpL.Addr().String()
	h.ftpDone = make(chan struct{})
	go func() {
		defer close(h.ftpDone)
		_ = h.ftpSrv.Serve(ftpL)
	}()

	dir := mds.NewDirectory()
	_ = dir.Register(mds.Record{Name: "load.grid.test", Contact: h.res.Addr, TotalCPUs: 64, FreeCPUs: 64})
	h.query = mds.QueryPDP(h.res.Registry, dir, nil)

	// The harness scrapes its own /metrics endpoint over HTTP — the
	// same path an operator's collector takes — rather than reading the
	// counters in-process, so the cross-check covers the exporter too.
	httpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	h.httpSrv = &http.Server{Handler: obs.NewServeMux(h.metrics, nil)}
	h.scrapeURL = "http://" + httpL.Addr().String() + "/metrics"
	go func() { _ = h.httpSrv.Serve(httpL) }()
	return h, nil
}

func (h *harness) Close() {
	h.poolMu.Lock()
	for _, e := range h.pool {
		if e.gram != nil {
			e.gram.Close()
		}
		if e.ftp != nil {
			e.ftp.Close()
		}
	}
	h.poolMu.Unlock()
	if h.httpSrv != nil {
		_ = h.httpSrv.Close()
	}
	if h.ftpSrv != nil {
		h.ftpSrv.Close()
		<-h.ftpDone
	}
	if h.res != nil {
		h.res.Close()
	}
}

func (h *harness) identity(i int) (*identity, error) {
	h.idMu.Lock()
	defer h.idMu.Unlock()
	if id, ok := h.ids[i]; ok {
		return id, nil
	}
	dn := workload.P12Subject(h.p.Policy.Shape, i, h.p.Policy.Rules)
	user, err := h.fab.CA.IssueWithKey(dn, gsi.KindUser, gsi.KeyFromSeed(h.seed, "user", strconv.Itoa(i)))
	if err != nil {
		return nil, fmt.Errorf("loadgen: fabricate user %d: %w", i, err)
	}
	proxy, err := gsi.DelegateWithKey(user, 12*time.Hour, false, gsi.KeyFromSeed(h.seed, "proxy", strconv.Itoa(i)))
	if err != nil {
		return nil, fmt.Errorf("loadgen: fabricate proxy %d: %w", i, err)
	}
	h.gmap.Add(dn, LoadAccount)
	id := &identity{dn: dn, proxy: proxy}
	h.ids[i] = id
	return id, nil
}

func (h *harness) entry(i int) *entry {
	h.poolMu.Lock()
	defer h.poolMu.Unlock()
	e, ok := h.pool[i]
	if !ok {
		e = &entry{}
		h.pool[i] = e
	}
	return e
}

// noteOpen records that identity i now holds pooled clients and evicts
// the oldest idle identity's clients when the pool exceeds
// maxOpenClients. Called with i's entry lock held, so eviction only
// TryLocks other entries — a busy victim is skipped, never waited on.
func (h *harness) noteOpen(i int) {
	h.poolMu.Lock()
	defer h.poolMu.Unlock()
	h.order = append(h.order, i)
	for len(h.order) > maxOpenClients {
		victim := h.order[0]
		h.order = h.order[1:]
		if victim == i {
			h.order = append(h.order, victim)
			return
		}
		ve := h.pool[victim]
		if ve == nil {
			continue
		}
		if !ve.mu.TryLock() {
			h.order = append(h.order, victim)
			return
		}
		if ve.gram != nil {
			ve.gram.Close()
			ve.gram = nil
		}
		if ve.ftp != nil {
			ve.ftp.Close()
			ve.ftp = nil
		}
		ve.mu.Unlock()
	}
}

// gramClient resolves the op's GRAM client per its connection mode. The
// second result reports a throwaway client the caller must Close.
func (h *harness) gramClient(e *entry, i int, id *identity, conn string) (*gram.Client, bool) {
	if conn == ConnFull {
		return gram.NewClient(h.res.Addr, id.proxy, h.fab.Trust), true
	}
	if e.gram == nil {
		e.gram = gram.NewClient(h.res.Addr, id.proxy, h.fab.Trust)
		h.noteOpen(i)
	} else if conn == ConnResume {
		// Drop the connection but keep the client: its session cache
		// survives Close, so the op's lazy reconnect resumes by ticket.
		e.gram.Close()
	}
	return e.gram, false
}

func (h *harness) ftpClient(e *entry, i int, id *identity, conn string) (*gridftp.Client, bool) {
	// Every gridftp.Client in the process shares one session cache, so a
	// ConnFull draw's fresh client resumes, not handshakes in full,
	// whenever the process already holds a ticket for this credential
	// with the server: only an identity's first connection is a full
	// handshake.
	if conn == ConnFull {
		return gridftp.NewClient(h.ftpAddr, id.proxy, h.fab.Trust), true
	}
	if e.ftp == nil {
		e.ftp = gridftp.NewClient(h.ftpAddr, id.proxy, h.fab.Trust)
		h.noteOpen(i)
	} else if conn == ConnResume {
		// As for GRAM: drop the connection, keep the client; the op's lazy
		// reconnect resumes by ticket.
		e.ftp.Close()
	}
	return e.ftp, false
}

// do executes one op against the running services and counts its
// outcome. Every op that completes yields exactly one authorization
// decision server-side — that invariant is what makes the /metrics
// cross-check exact.
func (h *harness) do(op Op) {
	id, err := h.identity(op.Identity)
	if err != nil {
		h.errs.Add(1)
		return
	}
	e := h.entry(op.Identity)
	e.mu.Lock()
	defer e.mu.Unlock()

	switch op.Kind {
	case OpMDS:
		req := &core.Request{
			Subject: id.dn,
			Action:  policy.ActionInformation,
			Spec:    rsl.NewSpec().Set("querytype", "discovery"),
		}
		_, d := h.query(req, mds.Query{})
		switch d.Effect {
		case core.Permit:
			h.permits.Add(1)
		case core.Deny:
			h.denies.Add(1)
		default:
			h.errs.Add(1)
		}
		return
	case OpGridFTP:
		c, temp := h.ftpClient(e, op.Identity, id, op.Conn)
		err = c.Put(LoadDir+"/u"+strconv.Itoa(op.Identity), loadPayload)
		if temp {
			c.Close()
		}
		h.count(err, errors.Is(err, gridftp.ErrDenied))
		return
	default: // OpStartup, OpManagement
		c, temp := h.gramClient(e, op.Identity, id, op.Conn)
		kind := op.Kind
		if kind == OpManagement && e.contact == "" {
			// Nothing to manage yet: the op degenerates to a startup,
			// which still costs exactly one decision.
			kind = OpStartup
		}
		if kind == OpStartup {
			contact, serr := c.Submit(LoadRSL, LoadAccount)
			if serr == nil {
				e.contact = contact
			}
			err = serr
		} else {
			_, err = c.Status(e.contact)
		}
		if temp {
			c.Close()
		}
		h.count(err, gram.IsAuthorizationDenied(err))
	}
}

func (h *harness) count(err error, denied bool) {
	switch {
	case err == nil:
		h.permits.Add(1)
	case denied:
		h.denies.Add(1)
	default:
		h.errs.Add(1)
	}
}

// scrape fetches and parses the /metrics endpoint.
func (h *harness) scrape() (map[string]float64, error) {
	resp, err := http.Get(h.scrapeURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out, nil
}

func decisionsTotal(m map[string]float64) float64 {
	return m["authz_decisions_permit_total"] +
		m["authz_decisions_deny_total"] +
		m["authz_decisions_error_total"] +
		m["authz_decisions_not_applicable_total"]
}

// RunPoint executes one load run: point p with the given seed. The
// full service stack (gatekeeper, gridftp, mds, metrics exporter) is
// built fresh, the deterministic op stream is executed in the point's
// loop mode, and the result carries exact latency percentiles plus the
// /metrics cross-check.
func RunPoint(p Point, seed int64) (*RunResult, error) {
	p.Normalize()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ops := Ops(&p, seed)
	h, err := newHarness(&p, seed)
	if err != nil {
		return nil, err
	}
	defer h.Close()

	// Peak decisions/sec sampler: scrape deltas at scrapeInterval.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	var peak float64
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		tick := time.NewTicker(scrapeInterval)
		defer tick.Stop()
		var prev float64
		prevAt := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m, err := h.scrape()
				if err != nil {
					continue
				}
				now := time.Now()
				cur := decisionsTotal(m)
				if dt := now.Sub(prevAt).Seconds(); dt > 0 {
					if rate := (cur - prev) / dt; rate > peak {
						peak = rate
					}
				}
				prev, prevAt = cur, now
			}
		}
	}()

	workers := p.Workers
	lat := make([][]int64, workers)
	var wg sync.WaitGroup
	start := time.Now()
	if p.Rate > 0 {
		// Open loop: a dispatcher releases ops at the arrival rate;
		// latency runs from the op's scheduled arrival, so a backlog
		// shows up as latency instead of silently slowing arrivals.
		type timedOp struct {
			op    Op
			sched time.Time
		}
		ch := make(chan timedOp, len(ops))
		interval := time.Duration(float64(time.Second) / p.Rate)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(ch)
			t0 := time.Now()
			for i, op := range ops {
				sched := t0.Add(time.Duration(i) * interval)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				ch <- timedOp{op, sched}
			}
		}()
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for to := range ch {
					h.do(to.op)
					lat[w] = append(lat[w], time.Since(to.sched).Nanoseconds())
				}
			}(w)
		}
	} else {
		// Closed loop: workers pull the next op as soon as they finish
		// the previous one.
		var next atomic.Int64
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ops) {
						return
					}
					t0 := time.Now()
					h.do(ops[i])
					lat[w] = append(lat[w], time.Since(t0).Nanoseconds())
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	scrapeWG.Wait()

	final, err := h.scrape()
	if err != nil {
		return nil, fmt.Errorf("loadgen: final metrics scrape: %w", err)
	}

	var all []int64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	permits, denies, errs := h.permits.Load(), h.denies.Load(), h.errs.Load()
	clientDecided := permits + denies
	server := uint64(decisionsTotal(final))
	cross := 0.0
	if server > 0 || clientDecided > 0 {
		ref := float64(server)
		if ref == 0 {
			ref = float64(clientDecided)
		}
		cross = 100 * absF(float64(server)-float64(clientDecided)) / ref
	}

	res := &RunResult{
		Point:               p.Name,
		Seed:                seed,
		Requests:            len(ops),
		OpenLoop:            p.Rate > 0,
		Permits:             permits,
		Denies:              denies,
		Errors:              errs,
		ServerDecisions:     server,
		CrossCheckPct:       cross,
		DurationSec:         elapsed.Seconds(),
		Throughput:          float64(len(all)) / elapsed.Seconds(),
		PeakDecisionsPerSec: peak,
		P50Micros:           percentileMicros(all, 0.50),
		P99Micros:           percentileMicros(all, 0.99),
		P999Micros:          percentileMicros(all, 0.999),
		HandshakesFull:      uint64(final["gsi_handshakes_full_total"]),
		HandshakesResumed:   uint64(final["gsi_handshakes_resumed_total"]),
		Identities:          len(h.ids),
	}
	if res.PeakDecisionsPerSec == 0 && elapsed > 0 {
		// Run shorter than a scrape interval: fall back to the average.
		res.PeakDecisionsPerSec = float64(server) / elapsed.Seconds()
	}
	return res, nil
}

func percentileMicros(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e3
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
