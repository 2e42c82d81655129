package gridauth

// Benchmark harness regenerating the paper's evaluation artifacts and the
// performance characterization rows of DESIGN.md's experiment index
// (E1/E2/E3/E5/E6/E8 and P1-P5). EXPERIMENTS.md records the measured
// series next to the paper's qualitative claims.
//
// Run everything with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/accounts"
	"gridauth/internal/akenti"
	"gridauth/internal/audit"
	"gridauth/internal/cas"
	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
	"gridauth/internal/sandbox"
	"gridauth/internal/workload"
)

// benchFabric caches the expensive fixtures across benchmarks.
type benchFabric struct {
	fab   *Fabric
	users []workload.User
	creds map[gsi.DN]*gsi.Credential
	voPol *policy.Policy
	local *policy.Policy
}

func newBenchFabric(b *testing.B, nUsers int) *benchFabric {
	b.Helper()
	fab, err := NewFabric("/O=Grid/CN=Bench CA")
	if err != nil {
		b.Fatal(err)
	}
	users := workload.NFCUsers(nUsers/3+1, nUsers/3+1, nUsers/3+1)
	creds := make(map[gsi.DN]*gsi.Credential, len(users))
	for _, u := range users {
		c, err := fab.IssueUser(string(u.DN))
		if err != nil {
			b.Fatal(err)
		}
		creds[u.DN] = c
	}
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	local, err := workload.NFCLocalPolicy()
	if err != nil {
		b.Fatal(err)
	}
	return &benchFabric{fab: fab, users: users, creds: creds, voPol: voPol, local: local}
}

func (bf *benchFabric) gridMap() map[gsi.DN][]string {
	m := make(map[gsi.DN][]string, len(bf.users))
	for i, u := range bf.users {
		m[u.DN] = []string{"acct" + strconv.Itoa(i)}
	}
	return m
}

func (bf *benchFabric) resource(b *testing.B, mode Mode) *Resource {
	b.Helper()
	cfg := ResourceConfig{
		Name:    "bench.anl.gov",
		CPUs:    1 << 20, // effectively unbounded so submissions never queue
		Mode:    mode,
		GridMap: bf.gridMap(),
	}
	if mode == ModeCallout {
		cfg.VOPolicy = bf.voPol.Unparse()
		cfg.LocalPolicy = bf.local.Unparse()
	}
	res, err := bf.fab.StartResource(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(res.Close)
	return res
}

func (bf *benchFabric) client(b *testing.B, res *Resource, dn gsi.DN) *gram.Client {
	b.Helper()
	c, err := res.Client(bf.creds[dn])
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

const benchAnalystJob = `&(executable=TRANSP)(directory=/sandbox/services)(jobtag=NFC)(count=2)(simduration=60)`

// BenchmarkE1_Fig1_BaselineGRAM measures the Figure 1 baseline: a full
// submit→status→cancel conversation through stock-GT2 authorization over
// real TCP.
func BenchmarkE1_Fig1_BaselineGRAM(b *testing.B) {
	bf := newBenchFabric(b, 3)
	res := bf.resource(b, ModeLegacy)
	ana := analystOf(bf)
	c := bf.client(b, res, ana)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contact, err := c.Submit(benchAnalystJob, "")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Status(contact); err != nil {
			b.Fatal(err)
		}
		if err := c.Cancel(contact); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Fig2_ExtendedGRAM measures the same conversation with the
// Figure 2 extension active: authorization callouts on startup and on
// both management requests. The delta vs E1 is the price of fine-grain
// policy.
func BenchmarkE2_Fig2_ExtendedGRAM(b *testing.B) {
	bf := newBenchFabric(b, 3)
	res := bf.resource(b, ModeCallout)
	ana := analystOf(bf)
	c := bf.client(b, res, ana)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contact, err := c.Submit(benchAnalystJob, "")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Status(contact); err != nil {
			b.Fatal(err)
		}
		if err := c.Cancel(contact); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Fig3_PolicyEval measures evaluation of the paper's Figure 3
// policy for the narrated permit and deny cases.
func BenchmarkE3_Fig3_PolicyEval(b *testing.B) {
	pol := policy.MustParse(`
/O=Grid/O=Globus/OU=mcs.anl.gov: &(action = start)(jobtag != NULL)
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu:
  &(action = start)(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count<4)
  &(action = start)(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count<4)
/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey:
  &(action = start)(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)
  &(action=cancel)(jobtag=NFC)
`, "VO:NFC")
	const boDN = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu")
	const kateDN = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
	permit := &policy.Request{Subject: boDN, Action: policy.ActionStart,
		Spec: mustBenchSpec(b, `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)`)}
	deny := &policy.Request{Subject: boDN, Action: policy.ActionStart,
		Spec: mustBenchSpec(b, `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=8)`)}
	manage := &policy.Request{Subject: kateDN, Action: policy.ActionCancel, JobOwner: boDN,
		Spec: mustBenchSpec(b, `&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)`)}
	b.Run("permit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := pol.Evaluate(permit); !d.Allowed {
				b.Fatal(d.Reason)
			}
		}
	})
	b.Run("deny", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := pol.Evaluate(deny); d.Allowed {
				b.Fatal("permitted")
			}
		}
	})
	b.Run("vo-wide-cancel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := pol.Evaluate(manage); !d.Allowed {
				b.Fatal(d.Reason)
			}
		}
	})
}

// BenchmarkE5_CalloutDispatch measures the callout registry's dispatch
// cost as the number of configured PDPs grows, for both PEP placements
// (the dispatch itself is placement-independent; placements differ in
// transport cost, covered by E1/E2).
func BenchmarkE5_CalloutDispatch(b *testing.B) {
	users := workload.NFCUsers(1, 1, 1)
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	req := &core.Request{
		Subject: users[1].DN,
		Action:  policy.ActionStart,
		Spec:    mustBenchSpec(b, benchAnalystJob),
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("pdps=%d", n), func(b *testing.B) {
			reg := core.NewRegistry()
			for i := 0; i < n; i++ {
				reg.Bind(core.CalloutJobManager, &core.PolicyPDP{Policy: voPol})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
					b.Fatal(d.Reason)
				}
			}
		})
	}
}

// BenchmarkE6_EnforcementModes compares the per-decision cost of the
// three enforcement vehicles of §6.1: gateway policy evaluation, account
// rights checks, and sandbox usage polling.
func BenchmarkE6_EnforcementModes(b *testing.B) {
	users := workload.NFCUsers(1, 1, 1)
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	req := &policy.Request{
		Subject: users[1].DN,
		Action:  policy.ActionStart,
		Spec:    mustBenchSpec(b, benchAnalystJob),
	}
	b.Run("gateway-policy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := voPol.Evaluate(req); !d.Allowed {
				b.Fatal(d.Reason)
			}
		}
	})
	b.Run("account-rights", func(b *testing.B) {
		mgr := accounts.NewManager()
		acct := mgr.AddStatic("ana", accounts.Rights{MaxCPUs: 64, DiskQuotaMB: 10_000, MaxWallTime: 48 * time.Hour})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := acct.CheckJob(2, 100, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, jobs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("sandbox-poll/jobs=%d", jobs), func(b *testing.B) {
			cluster := jobcontrol.NewCluster(1 << 20)
			mon := sandbox.NewMonitor(cluster, false)
			for i := 0; i < jobs; i++ {
				j, err := cluster.Submit(jobcontrol.JobSpec{Executable: "w", Count: 1, Duration: 1000 * time.Hour})
				if err != nil {
					b.Fatal(err)
				}
				mon.Attach(j.ID, sandbox.Limits{MaxCPUSeconds: 1 << 40, MaxMemoryMB: 1 << 20})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vs := mon.Poll(); len(vs) != 0 {
					b.Fatal("unexpected violation")
				}
			}
		})
	}
}

// BenchmarkE8_NFCWorkload pushes the §2 National Fusion Collaboratory
// request mix (80% starts, 20% management, 10% non-conforming) through
// the combined VO+local decision chain.
func BenchmarkE8_NFCWorkload(b *testing.B) {
	users := workload.NFCUsers(10, 10, 2)
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	local, err := workload.NFCLocalPolicy()
	if err != nil {
		b.Fatal(err)
	}
	chain := core.NewCombined(core.RequireAllPermit,
		&core.PolicyPDP{Policy: voPol}, &core.PolicyPDP{Policy: local})
	stream := workload.RequestStream(users, 4096, 2003, 0.9)
	b.ResetTimer()
	permits := 0
	for i := 0; i < b.N; i++ {
		r := stream[i%len(stream)]
		d := chain.Authorize(context.Background(), &core.Request{
			Subject: r.Subject, Action: r.Action, JobOwner: r.Owner, Spec: r.Spec,
		})
		if d.Effect == core.Permit {
			permits++
		}
	}
	b.ReportMetric(float64(permits)/float64(b.N), "permit-fraction")
}

// BenchmarkP1_StartupAuthzOverhead measures end-to-end job startup over
// TCP as the policy grows: the legacy baseline vs callout mode with n
// statements. This is the quantitative form of the paper's implicit
// claim that fine-grain authorization is affordable at job-startup
// granularity.
func BenchmarkP1_StartupAuthzOverhead(b *testing.B) {
	bf := newBenchFabric(b, 3)
	ana := analystOf(bf)

	b.Run("legacy", func(b *testing.B) {
		res := bf.resource(b, ModeLegacy)
		c := bf.client(b, res, ana)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Submit(benchAnalystJob, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("callout/rules=%d", n), func(b *testing.B) {
			// n filler statements for other users plus the real grants.
			filler, err := workload.SyntheticPolicy(workload.NFCUsers(0, 0, 50), n, 1, 3)
			if err != nil {
				b.Fatal(err)
			}
			pol := bf.voPol.Merge(filler)
			res, err := bf.fab.StartResource(ResourceConfig{
				Name: "p1.anl.gov", CPUs: 1 << 20, Mode: ModeCallout,
				GridMap: bf.gridMap(), VOPolicy: pol.Unparse(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(res.Close)
			c := bf.client(b, res, ana)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Submit(benchAnalystJob, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2_PolicyScaling sweeps policy size and shape for the pure
// evaluation path, comparing the naive linear statement scan against the
// compiled engine (the ablation DESIGN.md calls out; P12 extends the
// sweep to 1M rules and distinct shapes).
func BenchmarkP2_PolicyScaling(b *testing.B) {
	users := workload.NFCUsers(0, 200, 0)
	for _, stmts := range []int{10, 100, 1000, 5000} {
		pol, err := workload.SyntheticPolicy(users, stmts, 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		idx := policy.Compile(pol)
		// A request matching the LAST statement (worst case for linear).
		last := stmts - 1
		u := users[last%len(users)]
		spec := rsl.NewSpec().
			Set("executable", fmt.Sprintf("exe%d-0", last)).
			Set("attr2", "v2").Set("attr3", "v3")
		req := &policy.Request{Subject: u.DN, Action: policy.ActionStart, Spec: spec}
		b.Run(fmt.Sprintf("linear/statements=%d", stmts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol.Evaluate(req)
			}
		})
		b.Run(fmt.Sprintf("compiled/statements=%d", stmts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Evaluate(req)
			}
		})
	}
}

// BenchmarkP3_RSLParse measures job-description parse+canonicalize
// throughput as descriptions grow.
func BenchmarkP3_RSLParse(b *testing.B) {
	for _, n := range []int{5, 20, 50, 200} {
		text := workload.SyntheticRSL(n)
		b.Run(fmt.Sprintf("attrs=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if _, err := rsl.ParseSpec(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP4_PDPBackends runs the same NFC start decision through the
// three backends the paper integrated: plaintext policy files, Akenti
// use conditions, and CAS restricted credentials.
func BenchmarkP4_PDPBackends(b *testing.B) {
	bf := newBenchFabric(b, 3)
	ana := analystOf(bf)
	spec := mustBenchSpec(b, benchAnalystJob)

	b.Run("plainfile", func(b *testing.B) {
		pdp := &core.PolicyPDP{Policy: bf.voPol}
		req := &core.Request{Subject: ana, Action: policy.ActionStart, Spec: spec}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := pdp.Authorize(context.Background(), req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
	})
	b.Run("akenti", func(b *testing.B) {
		stakeholder, err := bf.fab.IssueService("/O=Grid/CN=Stakeholder")
		if err != nil {
			b.Fatal(err)
		}
		engine := akenti.NewEngine()
		engine.TrustStakeholder(stakeholder.Leaf())
		engine.TrustAttributeIssuer(stakeholder.Leaf())
		uc := &akenti.UseCondition{
			Resource:     "gram:bench",
			Actions:      []string{policy.ActionStart},
			Requirements: []akenti.Requirement{{Attribute: "member", Value: "NFC"}},
			Constraint:   "(executable = TRANSP EFIT)(count<=64)",
			NotBefore:    time.Now().Add(-time.Minute),
			NotAfter:     time.Now().Add(24 * time.Hour),
		}
		if err := akenti.SignUseCondition(uc, stakeholder); err != nil {
			b.Fatal(err)
		}
		if err := engine.AddUseCondition(uc); err != nil {
			b.Fatal(err)
		}
		ac := &akenti.AttributeCertificate{
			Subject: ana, Attribute: "member", Value: "NFC",
			NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(24 * time.Hour),
		}
		if err := akenti.SignAttribute(ac, stakeholder); err != nil {
			b.Fatal(err)
		}
		if err := engine.StoreAttribute(ac); err != nil {
			b.Fatal(err)
		}
		pdp := &akenti.PDP{Engine: engine, Resource: "gram:bench"}
		req := &core.Request{Subject: ana, Action: policy.ActionStart, Spec: spec}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := pdp.Authorize(context.Background(), req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
	})
	b.Run("cas", func(b *testing.B) {
		casCred, err := bf.fab.IssueService("/O=Grid/CN=Bench CAS")
		if err != nil {
			b.Fatal(err)
		}
		server := cas.NewServer("NFC", casCred, bf.voPol)
		grant, err := server.Grant(ana)
		if err != nil {
			b.Fatal(err)
		}
		pdp := &cas.PDP{Community: "NFC", Cert: server.Certificate()}
		req := &core.Request{
			Subject: ana, Action: policy.ActionStart, Spec: spec,
			Assertions: []*gsi.Assertion{grant},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := pdp.Authorize(context.Background(), req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
	})
}

// BenchmarkP5_GRAMEndToEnd measures concurrent submit+cancel round trips
// through real sockets at increasing client parallelism.
func BenchmarkP5_GRAMEndToEnd(b *testing.B) {
	bf := newBenchFabric(b, 3)
	ana := analystOf(bf)
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", par), func(b *testing.B) {
			res := bf.resource(b, ModeCallout)
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c, err := res.Client(bf.creds[ana])
				if err != nil {
					b.Error(err)
					return
				}
				defer c.Close()
				for pb.Next() {
					contact, err := c.Submit(benchAnalystJob, "")
					if err != nil {
						b.Error(err)
						return
					}
					if err := c.Cancel(contact); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// latencyPDP wraps a PDP with a fixed evaluation delay, modelling the
// remote round trip of a networked PDP (an Akenti server, a CAS query)
// that the in-process backends do not pay.
type latencyPDP struct {
	inner core.PDP
	delay time.Duration
}

func (p *latencyPDP) Name() string { return p.inner.Name() }
func (p *latencyPDP) Authorize(ctx context.Context, req *core.Request) core.Decision {
	time.Sleep(p.delay)
	return p.inner.Authorize(ctx, req)
}

// BenchmarkP6_DecisionCache measures the sharded decision cache on
// repeated identical requests dispatched through the registry: the
// uncached series re-evaluates the VO+local chain every time, the
// cached series serves digests-matched hits, in process and behind a
// simulated 200µs remote PDP.
func BenchmarkP6_DecisionCache(b *testing.B) {
	users := workload.NFCUsers(1, 1, 1)
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	local, err := workload.NFCLocalPolicy()
	if err != nil {
		b.Fatal(err)
	}
	req := &core.Request{
		Subject: users[1].DN,
		Action:  policy.ActionStart,
		Spec:    mustBenchSpec(b, benchAnalystJob),
	}
	// A production-size VO policy: the real grants plus 1000 synthetic
	// statements for other users (same shape as P1/P2).
	filler, err := workload.SyntheticPolicy(workload.NFCUsers(0, 0, 50), 1000, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	bigPol := voPol.Merge(filler)
	newReg := func(cache bool, big bool, remoteDelay time.Duration) *core.Registry {
		reg := core.NewRegistry()
		pol := voPol
		if big {
			pol = bigPol
		}
		var vo core.PDP = &core.PolicyPDP{Policy: pol}
		if remoteDelay > 0 {
			vo = &latencyPDP{inner: vo, delay: remoteDelay}
		}
		reg.Bind(core.CalloutJobManager, vo)
		reg.Bind(core.CalloutJobManager, &core.PolicyPDP{Policy: local})
		if cache {
			// The maximum permitted TTL, so the benchmark measures the hit
			// path, not TTL churn.
			reg.SetCalloutOptions(core.CalloutJobManager, core.CalloutOptions{
				Cache: true, CacheTTL: core.MaxCacheTTL,
			})
		}
		return reg
	}
	// warm sends one untimed request: PolicyPDP compiles its policy on
	// first use, and a cached series takes its one miss here.
	warm := func(b *testing.B, reg *core.Registry) {
		b.Helper()
		if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
			b.Fatal(d.Reason)
		}
		b.ResetTimer()
	}
	run := func(b *testing.B, reg *core.Registry) {
		b.Helper()
		warm(b, reg)
		for i := 0; i < b.N; i++ {
			if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, newReg(false, false, 0)) })
	b.Run("cached", func(b *testing.B) { run(b, newReg(true, false, 0)) })
	b.Run("uncached-rules=1000", func(b *testing.B) { run(b, newReg(false, true, 0)) })
	b.Run("cached-rules=1000", func(b *testing.B) { run(b, newReg(true, true, 0)) })
	b.Run("uncached-remote", func(b *testing.B) { run(b, newReg(false, false, 200*time.Microsecond)) })
	b.Run("cached-remote", func(b *testing.B) { run(b, newReg(true, false, 200*time.Microsecond)) })
	b.Run("cached-parallel-clients", func(b *testing.B) {
		reg := newReg(true, false, 0)
		warm(b, reg)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
					b.Error(d.Reason)
					return
				}
			}
		})
	})
}

// BenchmarkP7_SessionResumption compares a full GSI mutual handshake
// (chain transfer, chain verification, per-leg signatures) against a
// ticket resumption (one round trip, HMAC checks only) over real TCP.
// The acceptance bar for this PR is >=5x.
func BenchmarkP7_SessionResumption(b *testing.B) {
	ca, err := gsi.NewCA("/O=Grid/CN=P7 CA")
	if err != nil {
		b.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	user, err := ca.Issue("/O=Grid/CN=P7 User", gsi.KindUser)
	if err != nil {
		b.Fatal(err)
	}
	proxy, err := gsi.Delegate(user, time.Hour, false)
	if err != nil {
		b.Fatal(err)
	}
	gkCred, err := ca.Issue("/O=Grid/CN=P7 Gatekeeper", gsi.KindService)
	if err != nil {
		b.Fatal(err)
	}
	issuer, err := gsi.NewTicketIssuer(0)
	if err != nil {
		b.Fatal(err)
	}
	acceptor := gsi.NewAuthenticator(gkCred, trust, gsi.WithTicketIssuer(issuer))

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, _, err := acceptor.HandshakeAccept(conn); err != nil {
					return
				}
				// Hold the connection until the client hangs up.
				_, _ = conn.Read(make([]byte, 1))
			}(conn)
		}
	}()
	addr := l.Addr().String()

	handshake := func(b *testing.B, auth *gsi.Authenticator, wantResumed bool) {
		b.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		peer, _, err := auth.HandshakeClient(conn, addr)
		if err != nil {
			b.Fatal(err)
		}
		if peer.Resumed != wantResumed {
			b.Fatalf("resumed = %v, want %v", peer.Resumed, wantResumed)
		}
	}

	b.Run("full", func(b *testing.B) {
		auth := gsi.NewAuthenticator(proxy, trust)
		for i := 0; i < b.N; i++ {
			handshake(b, auth, false)
		}
	})
	b.Run("resumed", func(b *testing.B) {
		auth := gsi.NewAuthenticator(proxy, trust,
			gsi.WithSessionCache(gsi.NewSessionCache()))
		handshake(b, auth, false) // prime: full handshake grants the ticket
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			handshake(b, auth, true)
		}
	})
}

// BenchmarkP8_MultiplexedManagement measures concurrent status requests
// against one gatekeeper whose management path pays a simulated 200µs
// PDP callout (gatekeeper placement — the regime of the paper's remote
// Akenti integration, where per-request latency is dominated by the
// authorization round trip). Increasing in-flight depth over ONE shared
// multiplexed connection overlaps those callouts; a 4-connection fleet
// serves as the pre-multiplexing reference. The acceptance bar is
// one-connection throughput scaling with in-flight depth.
func BenchmarkP8_MultiplexedManagement(b *testing.B) {
	ca, err := gsi.NewCA("/O=Grid/CN=P8 CA")
	if err != nil {
		b.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	const userDN = gsi.DN("/O=Grid/CN=P8 User")
	user, err := ca.Issue(userDN, gsi.KindUser)
	if err != nil {
		b.Fatal(err)
	}
	proxy, err := gsi.Delegate(user, time.Hour, false)
	if err != nil {
		b.Fatal(err)
	}
	gkCred, err := ca.Issue("/O=Grid/CN=P8 Gatekeeper", gsi.KindService)
	if err != nil {
		b.Fatal(err)
	}
	gmap := gridmap.New()
	gmap.Add(userDN, "p8acct")
	pol := policy.MustParse(string(userDN)+`:
  &(action = start)(executable = TRANSP)(jobtag = NFC)
  &(action = cancel information signal)(jobowner = self)
`, "VO:P8")
	reg := core.NewRegistry()
	reg.Bind(core.CalloutGatekeeper, &latencyPDP{
		inner: &core.PolicyPDP{Policy: pol},
		delay: 200 * time.Microsecond,
	})
	gk, err := gram.NewGatekeeper(gram.Config{
		Credential:  gkCred,
		Trust:       trust,
		GridMap:     gmap,
		Registry:    reg,
		Mode:        gram.AuthzCallout,
		Placement:   gram.PlacementGatekeeper,
		Cluster:     jobcontrol.NewCluster(1 << 20),
		ConnWorkers: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = gk.Serve(l) }()
	b.Cleanup(gk.Close)

	newClient := func() *gram.Client {
		c := gram.NewClient(l.Addr().String(), proxy, trust)
		b.Cleanup(c.Close)
		return c
	}
	c := newClient()
	contact, err := c.Submit(benchAnalystJob, "")
	if err != nil {
		b.Fatal(err)
	}

	statusWorkers := func(b *testing.B, clients []*gram.Client, inflight int) {
		b.Helper()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < inflight; w++ {
			cl := clients[w%len(clients)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(b.N) {
					if _, err := cl.Status(contact); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	for _, inflight := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("one-conn/inflight=%d", inflight), func(b *testing.B) {
			statusWorkers(b, []*gram.Client{c}, inflight)
		})
	}
	b.Run("conns=4/inflight=4", func(b *testing.B) {
		clients := make([]*gram.Client, 4)
		for i := range clients {
			clients[i] = newClient()
			if _, err := clients[i].Status(contact); err != nil { // connect outside the timer
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		statusWorkers(b, clients, 4)
	})
}

// BenchmarkP9_ResilienceOverhead prices the registry's per-PDP
// protection on the happy path: the same registry-dispatched VO+local
// chain with no protection, with each protection alone, and with the full stack
// (timeout + retries + breaker) — all on permits, so retries never
// fire and the breaker never opens. The acceptance bar for this PR is
// the full stack within ~5% of unwrapped, on this worst case: an
// in-process chain whose whole unwrapped decision is a few
// microseconds. Both chain PDPs declare core.NonBlockingPDP, so the
// timeout spends no deadline machinery on them; the per-layer costs,
// including the deadline price a hang-capable PDP pays, are isolated
// by BenchmarkWrapMicro in internal/core.
func BenchmarkP9_ResilienceOverhead(b *testing.B) {
	users := workload.NFCUsers(1, 1, 1)
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	local, err := workload.NFCLocalPolicy()
	if err != nil {
		b.Fatal(err)
	}
	req := &core.Request{
		Subject: users[1].DN,
		Action:  policy.ActionStart,
		Spec:    mustBenchSpec(b, benchAnalystJob),
	}
	newReg := func(o core.CalloutOptions) *core.Registry {
		reg := core.NewRegistry()
		reg.Bind(core.CalloutJobManager, &core.PolicyPDP{Policy: voPol})
		reg.Bind(core.CalloutJobManager, &core.PolicyPDP{Policy: local})
		reg.SetCalloutOptions(core.CalloutJobManager, o)
		return reg
	}
	run := func(b *testing.B, reg *core.Registry) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
	}
	full := core.CalloutOptions{
		PDPTimeout: 250 * time.Millisecond,
		Retries:    2, RetryBackoff: 5 * time.Millisecond,
		Breaker: true, BreakerThreshold: 5, BreakerCooldown: time.Second,
	}
	b.Run("unwrapped", func(b *testing.B) { run(b, newReg(core.CalloutOptions{})) })
	b.Run("timeout", func(b *testing.B) { run(b, newReg(core.CalloutOptions{PDPTimeout: full.PDPTimeout})) })
	b.Run("retries", func(b *testing.B) {
		run(b, newReg(core.CalloutOptions{Retries: full.Retries, RetryBackoff: full.RetryBackoff}))
	})
	b.Run("breaker", func(b *testing.B) {
		run(b, newReg(core.CalloutOptions{Breaker: true,
			BreakerThreshold: full.BreakerThreshold, BreakerCooldown: full.BreakerCooldown}))
	})
	b.Run("full-stack", func(b *testing.B) { run(b, newReg(full)) })
}

// BenchmarkP10_TraceOverhead prices the observability layer on a
// registry-dispatched 4-PDP chain whose members each carry a simulated
// 200µs callout latency (the networked-PDP case). Three series: observability off, metric
// counters alone, and the full per-request decision trace (request ID,
// span per PDP, retained in a trace store) on top of the counters. The
// acceptance bar for this PR is the traced series within 5% of
// disabled — the span bookkeeping must disappear under a real callout
// round trip.
func BenchmarkP10_TraceOverhead(b *testing.B) {
	users := workload.NFCUsers(1, 1, 1)
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	local, err := workload.NFCLocalPolicy()
	if err != nil {
		b.Fatal(err)
	}
	req := &core.Request{
		Subject: users[1].DN,
		Action:  policy.ActionStart,
		Spec:    mustBenchSpec(b, benchAnalystJob),
	}
	const delay = 200 * time.Microsecond
	newReg := func(m *obs.Metrics) *core.Registry {
		reg := core.NewRegistry()
		for i := 0; i < 4; i++ {
			pol := voPol
			if i%2 == 1 {
				pol = local
			}
			reg.Bind(core.CalloutJobManager, &latencyPDP{inner: &core.PolicyPDP{Policy: pol}, delay: delay})
		}
		if m != nil {
			reg.SetMetrics(m)
		}
		return reg
	}
	b.Run("disabled", func(b *testing.B) {
		reg := newReg(nil)
		for i := 0; i < b.N; i++ {
			if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
	})
	b.Run("metrics", func(b *testing.B) {
		reg := newReg(obs.NewMetrics())
		for i := 0; i < b.N; i++ {
			if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		reg := newReg(obs.NewMetrics())
		store := obs.NewTraceStore(1024)
		for i := 0; i < b.N; i++ {
			// Per-request trace lifecycle exactly as the gatekeeper runs
			// it: fresh ID and trace, spans recorded during evaluation,
			// summary finished, trace retained.
			rid := obs.NewRequestID()
			tr := obs.NewTrace(rid, string(req.Subject))
			ctx := obs.WithTrace(obs.WithRequestID(context.Background(), rid), tr)
			d := reg.InvokeContext(ctx, core.CalloutJobManager, req)
			if d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
			tr.Finish(core.CalloutJobManager, req.Action, d.Effect.String(), d.Source, d.Reason)
			store.Publish(tr)
		}
	})
}

// BenchmarkP11_AuditThroughput prices the tamper-evident audit
// pipeline (docs/AUDIT.md). The append series sweep batch sizes, queue
// capacities and flush intervals — the sweep behind the writer's
// constants in docs/PERFORMANCE.md. The records=1M
// series appends a million records per iteration and reports sustained
// records/s (the PR's >=1M/s acceptance bar). The fullstack pair
// re-runs the P10 regime — a registry-dispatched parallel 4-PDP chain
// at 200µs simulated callout latency — bare, and through audit.Enforce
// with a log; the
// acceptance bar is audited within 5% of disabled, i.e. the hash
// chain, Merkle batching and sealing all disappear behind the writer
// goroutine.
func BenchmarkP11_AuditThroughput(b *testing.B) {
	rec := audit.Record{
		Subject: "/O=Grid/O=NFC/CN=Alan Analyst",
		Action:  policy.ActionStart,
		JobID:   "job-1",
		PDP:     "policy:VO",
		Effect:  core.Permit.String(),
		Source:  "policy:VO",
		Reason:  "granted",
		Elapsed: 180 * time.Microsecond,
	}
	pipeBench := func(cfg audit.Config) func(*testing.B) {
		return func(b *testing.B) {
			log, err := audit.NewPipeline(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				log.Append(rec)
			}
			log.Flush()
			b.StopTimer()
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
			if n := log.QueueDropped(); n != 0 {
				b.Fatalf("block-mode pipeline dropped %d records", n)
			}
		}
	}
	for _, batch := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("pipeline/batch=%d", batch), pipeBench(audit.Config{Batch: batch}))
	}
	for _, queue := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("pipeline/queue=%d", queue), pipeBench(audit.Config{Queue: queue}))
	}
	for _, flush := range []time.Duration{time.Millisecond, 20 * time.Millisecond} {
		b.Run(fmt.Sprintf("pipeline/flush=%s", flush), pipeBench(audit.Config{FlushInterval: flush}))
	}
	b.Run("records=1M", func(b *testing.B) {
		const n = 1 << 20
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// The tuned sustained-throughput configuration from
			// docs/PERFORMANCE.md: a large batch amortizes per-commit
			// overhead; the queue is deep enough to ride out commit
			// pauses but not so deep that the GC spends its time scanning
			// pending-record arrays.
			log, err := audit.NewPipeline(audit.Config{Batch: 1024, Queue: 16384})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for j := 0; j < n; j++ {
				log.Append(rec)
			}
			log.Flush()
			b.StopTimer()
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
			if d := log.QueueDropped(); d != 0 {
				b.Fatalf("dropped %d records", d)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "records/s")
	})

	// Full-stack: the P10 networked-callout regime, audited vs not.
	users := workload.NFCUsers(1, 1, 1)
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	local, err := workload.NFCLocalPolicy()
	if err != nil {
		b.Fatal(err)
	}
	req := &core.Request{
		Subject: users[1].DN,
		Action:  policy.ActionStart,
		Spec:    mustBenchSpec(b, benchAnalystJob),
	}
	const delay = 200 * time.Microsecond
	pdps := make([]core.PDP, 4)
	for i := range pdps {
		pol := voPol
		if i%2 == 1 {
			pol = local
		}
		pdps[i] = &latencyPDP{inner: &core.PolicyPDP{Policy: pol}, delay: delay}
	}
	b.Run("fullstack/disabled", func(b *testing.B) {
		reg := core.NewRegistry()
		for _, p := range pdps {
			reg.Bind(core.CalloutJobManager, p)
		}
		for i := 0; i < b.N; i++ {
			if d := reg.InvokeContext(context.Background(), core.CalloutJobManager, req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
	})
	b.Run("fullstack/audited", func(b *testing.B) {
		log, err := audit.NewPipeline(audit.Config{})
		if err != nil {
			b.Fatal(err)
		}
		// The same chain, decided and recorded by the PEPs' one
		// enforcement step — one record per decision the PEP acts on.
		reg := core.NewRegistry()
		for _, p := range pdps {
			reg.Bind(core.CalloutJobManager, p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := audit.Enforce(context.Background(), reg, log, core.CalloutJobManager, req); d.Effect != core.Permit {
				b.Fatal(d.Reason)
			}
		}
		b.StopTimer()
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkP12_CompiledPolicy prices the compiled policy engine
// (docs/PERFORMANCE.md P12): uncached decision latency at 1k-1M rules
// across the three workload shapes — exact-heavy (per-user statements
// hit the exact-subject bucket), prefix-heavy (group subjects force the
// sorted-prefix search), requirement-heavy (two requirement sets merge
// ahead of every grant) — with the interpreted linear scan as the
// ablation baseline and a compile series pricing the per-update
// rebuild. The permit path must not allocate: each compiled series
// asserts zero allocations before timing. The closing series evaluates
// an exact-heavy 1M-rule policy under a uniform workload touching every
// one of its ~1M distinct subjects, defeating any single-subject
// locality the sweep's 1024-request cycle might enjoy.
func BenchmarkP12_CompiledPolicy(b *testing.B) {
	shapes := []struct {
		name string
		gen  func(int) *policy.Policy
	}{
		{"exact", workload.ExactHeavyPolicy},
		{"prefix", workload.PrefixHeavyPolicy},
		{"req", workload.RequirementHeavyPolicy},
	}
	assertNoAllocs := func(b *testing.B, c *policy.Compiled, reqs []policy.Request) {
		b.Helper()
		i := 0
		if a := testing.AllocsPerRun(64, func() {
			d := c.Evaluate(&reqs[i%len(reqs)])
			i++
			if !d.Allowed {
				b.Fatal(d.Reason)
			}
		}); a != 0 {
			b.Fatalf("permit path allocates: %.1f allocs/op", a)
		}
		// Retire the garbage from policy construction and compilation
		// now; on a single-core box a concurrent mark of the setup heap
		// would otherwise be timed against the zero-allocation loop.
		runtime.GC()
	}
	for _, sh := range shapes {
		for _, rules := range []int{1_000, 10_000, 100_000, 1_000_000} {
			// Policy construction and compilation live inside the series
			// b.Run so a -bench filter that skips a size never builds it
			// (a filtered-out 1M-rule series would otherwise still pay
			// seconds of setup).
			b.Run(fmt.Sprintf("%s/rules=%d", sh.name, rules), func(b *testing.B) {
				pol := sh.gen(rules)
				c := policy.Compile(pol)
				reqs := workload.P12Requests(pol, 1024)
				b.Run("interpreted", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if d := pol.Evaluate(&reqs[i%len(reqs)]); !d.Allowed {
							b.Fatal(d.Reason)
						}
					}
				})
				b.Run("compiled", func(b *testing.B) {
					assertNoAllocs(b, c, reqs)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if d := c.Evaluate(&reqs[i%len(reqs)]); !d.Allowed {
							b.Fatal(d.Reason)
						}
					}
				})
				b.Run("compile", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						policy.Compile(pol)
					}
				})
			})
		}
	}
	b.Run("uniform-1M-subjects", func(b *testing.B) {
		// ~1M distinct subjects, one permit-path request each, visited
		// uniformly. The parent run does the setup once; the leaf only
		// evaluates, so b.N escalation never rebuilds the policy.
		pol := workload.ExactHeavyPolicy(1_000_000)
		c := policy.Compile(pol)
		uniform := workload.P12Requests(pol, len(pol.Statements)-1)
		b.Run("compiled", func(b *testing.B) {
			assertNoAllocs(b, c, uniform)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := c.Evaluate(&uniform[i%len(uniform)]); !d.Allowed {
					b.Fatal(d.Reason)
				}
			}
		})
	})
}

// BenchmarkAblation_CombineModes compares decision-combination
// algorithms over the same two-source (VO + local) configuration — the
// ablation DESIGN.md calls out for the paper's require-all rule.
func BenchmarkAblation_CombineModes(b *testing.B) {
	users := workload.NFCUsers(1, 1, 1)
	voPol, err := workload.NFCPolicy(users)
	if err != nil {
		b.Fatal(err)
	}
	local, err := workload.NFCLocalPolicy()
	if err != nil {
		b.Fatal(err)
	}
	pdps := []core.PDP{
		&core.PolicyPDP{Policy: voPol},
		&core.PolicyPDP{Policy: local},
	}
	req := &core.Request{
		Subject: users[1].DN,
		Action:  policy.ActionStart,
		Spec:    mustBenchSpec(b, benchAnalystJob),
	}
	modes := []core.CombineMode{
		core.RequireAllPermit, core.DenyOverrides, core.PermitOverrides, core.FirstApplicable,
	}
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			combined := core.NewCombined(mode, pdps...)
			for i := 0; i < b.N; i++ {
				if d := combined.Authorize(context.Background(), req); d.Effect != core.Permit {
					b.Fatal(d.Reason)
				}
			}
		})
	}
}

// BenchmarkAblation_PEPPlacement compares end-to-end management latency
// with the PEP in the Job Manager vs the Gatekeeper (§6.2).
func BenchmarkAblation_PEPPlacement(b *testing.B) {
	bf := newBenchFabric(b, 3)
	ana := analystOf(bf)
	for _, placement := range []Placement{PlacementJobManager, PlacementGatekeeper} {
		name := "job-manager"
		if placement == PlacementGatekeeper {
			name = "gatekeeper"
		}
		b.Run(name, func(b *testing.B) {
			res, err := bf.fab.StartResource(ResourceConfig{
				Name: "pep.anl.gov", CPUs: 1 << 20, Mode: ModeCallout, Placement: placement,
				GridMap: bf.gridMap(), VOPolicy: bf.voPol.Unparse(), LocalPolicy: bf.local.Unparse(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(res.Close)
			c := bf.client(b, res, ana)
			contact, err := c.Submit(benchAnalystJob, "")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Status(contact); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- helpers ---

func analystOf(bf *benchFabric) gsi.DN {
	for _, u := range bf.users {
		if u.Role == "analyst" {
			return u.DN
		}
	}
	return bf.users[0].DN
}

func mustBenchSpec(b *testing.B, text string) *rsl.Spec {
	b.Helper()
	s, err := rsl.ParseSpec(text)
	if err != nil {
		b.Fatal(err)
	}
	return s
}
