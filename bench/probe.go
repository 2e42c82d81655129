package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/gridftp"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/policy"
	"gridauth/internal/rsl"
)

// probeIdents is how many identities beyond the workload's the traced run
// fabricates for its probes, so that probing never touches an identity's
// job or session state that the replayed ops depend on.
const probeIdents = 4

// replayBatch is how many calls one timed batch of a replay probe makes,
// so that reading the clock (≈40 ns) does not swamp sub-microsecond work.
const replayBatch = 256

// perCall times batches of calls to fn and returns the median time per
// call in µs. fn gets the running call index.
func perCall(batches, batch int, fn func(i int)) float64 {
	per := make([]float64, batches)
	i := 0
	for b := range per {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn(i)
			i++
		}
		per[b] = float64(time.Since(t0)) / 1e3 / float64(batch)
	}
	return medianFloat(per)
}

// medianUs is the median of ns samples in µs.
func medianUs(ns []int64) float64 { return quantile(sorted(ns), 0.5) / 1e3 }

// probe prices the layers from outside. Live probes time calls against
// the running services; replay probes feed inputs straight into a
// layer's exported functions, on the same live objects the services use.
type probe struct {
	st   *stack
	ids  []*ident                  // probe identities
	reqs map[bool][]calloutRequest // by permitted: the requests the traced ops cause
	out  map[string]float64
	err  error
}

func (p *probe) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// calloutRequest is the request an op puts to the callout registry.
type calloutRequest struct {
	callout string
	req     *core.Request
}

// calloutRequests rebuilds the registry requests the given ops cause, the
// way gram.Gatekeeper, gram.JMI and gridftp.Server build them. A workload
// without refused ops gets count=16 submits by the same subjects, so that
// the deny path is priced on every workload.
func calloutRequests(st *stack, ops []op) (map[bool][]calloutRequest, error) {
	jobSpec, err := rsl.ParseSpec(submitRSL(vOK))
	if err != nil {
		return nil, err
	}
	build := func(o op) (calloutRequest, error) {
		id := st.ids[o.Ident]
		switch o.Kind {
		case kindPut:
			r := putRequest(id.dn, o)
			return calloutRequest{gridftp.CalloutGridFTP, &core.Request{Subject: r.Subject, Action: r.Action, Spec: r.Spec}}, nil
		case kindSubmit:
			spec, err := rsl.ParseSpec(submitRSL(o.Variant))
			if err != nil {
				return calloutRequest{}, err
			}
			return calloutRequest{core.CalloutJobManager, &core.Request{
				Subject: id.dn, Action: policy.ActionStart, JobID: "gram://probe/job/0", Spec: spec, Account: account}}, nil
		}
		action := policy.ActionInformation
		if o.Kind == kindCancel {
			action = policy.ActionCancel
		}
		return calloutRequest{core.CalloutJobManager, &core.Request{
			Subject: id.dn, Action: action, JobID: "gram://probe/job/0", JobOwner: st.ids[o.Target].dn, Spec: jobSpec}}, nil
	}
	out := map[bool][]calloutRequest{}
	for _, o := range ops {
		r, err := build(o)
		if err != nil {
			return nil, err
		}
		out[o.permitted()] = append(out[o.permitted()], r)
	}
	if len(out[false]) == 0 {
		for _, o := range ops {
			r, err := build(op{Kind: kindSubmit, Variant: vDenyCount, Ident: o.Ident, Target: o.Ident})
			if err != nil {
				return nil, err
			}
			out[false] = append(out[false], r)
		}
	}
	return out, nil
}

func (p *probe) run() (map[string]float64, error) {
	p.out = make(map[string]float64)
	p.handshakesLive()
	p.gramLive()
	p.ftpLive()
	p.out["mds.query_us"] = perCall(9, replayBatch, func(int) { p.fail(p.st.discover(p.ids[0])) })
	p.handshakesPipe()
	p.gsiPrimitives()
	p.requestPath()
	p.decisions()
	p.policyInstall()
	p.jobControl()
	return p.out, p.err
}

// handshakesLive prices dial and both handshakes over loopback TCP.
func (p *probe) handshakesLive() {
	const n = 100
	addr := p.st.res.Addr
	id := p.ids[0]
	var dial, full, resumed []int64
	connect := func(auth *gsi.Authenticator, sink *[]int64, wantResumed bool) {
		t0 := time.Now()
		conn, err := net.Dial("tcp", addr)
		t1 := time.Now()
		if err != nil {
			p.fail(err)
			return
		}
		defer conn.Close()
		peer, _, err := auth.HandshakeClient(conn, addr)
		t2 := time.Now()
		if err != nil {
			p.fail(err)
			return
		}
		if peer.Resumed != wantResumed {
			p.fail(fmt.Errorf("handshake probe: resumed=%v, wanted %v", peer.Resumed, wantResumed))
		}
		dial = append(dial, int64(t1.Sub(t0)))
		if sink != nil {
			*sink = append(*sink, int64(t2.Sub(t1)))
		}
	}
	fresh := gsi.NewAuthenticator(id.proxy, p.st.fab.Trust, gsi.WithFeatures(gram.FeatureMux))
	resuming := gsi.NewAuthenticator(id.proxy, p.st.fab.Trust, gsi.WithFeatures(gram.FeatureMux),
		gsi.WithSessionCache(gsi.NewSessionCache()))
	connect(resuming, nil, false) // primes the session cache
	for i := 0; i < n; i++ {
		connect(fresh, &full, false)
		connect(resuming, &resumed, true)
	}
	p.out["net.dial_us"] = medianUs(dial)
	p.out["gsi.handshake_full_us"] = medianUs(full)
	p.out["gsi.handshake_resumed_us"] = medianUs(resumed)
}

// gramLive prices the request round trips on a warm connection.
func (p *probe) gramLive() {
	const n = 200
	c := gram.NewClient(p.st.res.Addr, p.ids[1].proxy, p.st.fab.Trust)
	defer c.Close()
	var submit, status, cancel, deny []int64
	okRSL, denyRSL := submitRSL(vOK), submitRSL(vDenyCount)
	for i := 0; i <= n; i++ {
		t0 := time.Now()
		contact, err := c.Submit(okRSL, "")
		t1 := time.Now()
		p.fail(err)
		_, err = c.Status(contact)
		t2 := time.Now()
		p.fail(err)
		p.fail(c.Cancel(contact))
		t3 := time.Now()
		if _, err := c.Submit(denyRSL, ""); !gram.IsAuthorizationDenied(err) {
			p.fail(fmt.Errorf("deny probe: %v", err))
		}
		t4 := time.Now()
		if i == 0 {
			continue // the first round opened the connection
		}
		submit = append(submit, int64(t1.Sub(t0)))
		status = append(status, int64(t2.Sub(t1)))
		cancel = append(cancel, int64(t3.Sub(t2)))
		deny = append(deny, int64(t4.Sub(t3)))
	}
	p.out["gram.submit_rtt_us"] = medianUs(submit)
	p.out["gram.status_rtt_us"] = medianUs(status)
	p.out["gram.cancel_rtt_us"] = medianUs(cancel)
	p.out["gram.deny_rtt_us"] = medianUs(deny)
}

// ftpLive prices a put on a pooled and on a fresh client.
func (p *probe) ftpLive() {
	id := p.ids[2]
	o := op{Kind: kindPut, Ident: 0}
	warmClient := gridftp.NewClient(p.st.ftpAddr, id.proxy, p.st.fab.Trust)
	defer warmClient.Close()
	var warm, cold []int64
	for i := 0; i <= 200; i++ {
		t0 := time.Now()
		p.fail(warmClient.Put(putPath(o), payload))
		if i > 0 {
			warm = append(warm, int64(time.Since(t0)))
		}
	}
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		c := gridftp.NewClient(p.st.ftpAddr, id.proxy, p.st.fab.Trust)
		p.fail(c.Put(putPath(o), payload))
		c.Close()
		cold = append(cold, int64(time.Since(t0)))
	}
	p.out["gridftp.put_warm_us"] = medianUs(warm)
	p.out["gridftp.put_cold_us"] = medianUs(cold)
}

// handshakesPipe runs both handshakes over net.Pipe: the crypto and the
// codec without TCP. Live minus pipe is the socket's share.
func (p *probe) handshakesPipe() {
	svc, err := p.st.fab.IssueService("/O=Grid/CN=gatekeeper/pipe." + resourceName)
	if err != nil {
		p.fail(err)
		return
	}
	issuer, err := gsi.NewTicketIssuer(0)
	if err != nil {
		p.fail(err)
		return
	}
	acceptor := gsi.NewAuthenticator(svc, p.st.fab.Trust, gsi.WithFeatures(gram.FeatureMux), gsi.WithTicketIssuer(issuer))
	id := p.ids[0]
	handshake := func(client *gsi.Authenticator, wantResumed bool) {
		a, b := net.Pipe()
		accepted := make(chan error, 1)
		go func() {
			_, _, err := acceptor.HandshakeAccept(b)
			accepted <- err
		}()
		peer, _, err := client.HandshakeClient(a, "pipe")
		p.fail(err)
		p.fail(<-accepted)
		if err == nil && peer.Resumed != wantResumed {
			p.fail(fmt.Errorf("pipe handshake: resumed=%v, wanted %v", peer.Resumed, wantResumed))
		}
		a.Close()
		b.Close()
	}
	fresh := gsi.NewAuthenticator(id.proxy, p.st.fab.Trust, gsi.WithFeatures(gram.FeatureMux))
	resuming := gsi.NewAuthenticator(id.proxy, p.st.fab.Trust, gsi.WithFeatures(gram.FeatureMux),
		gsi.WithSessionCache(gsi.NewSessionCache()))
	handshake(resuming, false)
	p.out["gsi.pipe_full_us"] = perCall(9, 16, func(int) { handshake(fresh, false) })
	p.out["gsi.pipe_resumed_us"] = perCall(9, 16, func(int) { handshake(resuming, true) })
}

// gsiPrimitives prices what a full handshake and identity fabrication
// are made of.
func (p *probe) gsiPrimitives() {
	id := p.ids[0]
	now := time.Now()
	msg := []byte("bench-proof-nonce-0123456789abcdef")
	sig, err := id.proxy.Sign(msg)
	p.fail(err)
	p.out["gsi.verify_chain_us"] = perCall(9, 32, func(int) {
		_, err := p.st.fab.Trust.Verify(id.proxy, now)
		p.fail(err)
	})
	p.out["gsi.sign_us"] = perCall(9, 64, func(int) {
		_, err := id.proxy.Sign(msg)
		p.fail(err)
	})
	p.out["gsi.verify_sig_us"] = perCall(9, 64, func(int) { p.fail(id.proxy.VerifyBy(msg, sig)) })
	p.out["gsi.issue_us"] = perCall(9, 32, func(i int) {
		_, _, err := p.st.chain(len(p.st.ids) + i)
		p.fail(err)
	})
}

// requestPath prices the per-request steps around the decision: framing,
// RSL, grid-map.
func (p *probe) requestPath() {
	request := &gram.Message{Type: gram.MsgJobRequest, ID: 7, RSL: submitRSL(vOK)}
	reply := &gram.Message{Type: gram.MsgJobReply, ID: 7, Contact: "gram://" + resourceName + "/job/123456"}
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	p.out["gram.frame_us"] = perCall(9, replayBatch, func(int) {
		for _, m := range []*gram.Message{request, reply} {
			buf.Reset()
			br.Reset(&buf)
			p.fail(gram.WriteMessage(&buf, m))
			_, err := gram.ReadMessage(br)
			p.fail(err)
		}
	})
	text := submitRSL(vOK)
	p.out["rsl.parse_us"] = perCall(9, replayBatch, func(int) {
		spec, err := rsl.ParseSpec(text)
		if err == nil {
			err = rsl.Validate(spec)
		}
		p.fail(err)
	})
	ids := p.st.ids
	p.out["gridmap.lookup_us"] = perCall(9, replayBatch, func(i int) {
		if _, ok := p.st.gmap.LookupAccount(ids[i%len(ids)].dn, ""); !ok {
			p.fail(fmt.Errorf("grid-map has no entry for identity %d", i%len(ids)))
		}
	})
}

// decisions prices the callout chain, the community policy alone, and
// the audit append that follows every decision a PEP acts on.
func (p *probe) decisions() {
	const batches = 20
	reg, log := p.st.res.Registry, p.st.auditLog
	ctx := context.Background()
	var appendUs []float64
	for _, permitted := range []bool{true, false} {
		reqs := p.reqs[permitted]
		want := core.Deny
		name := "deny"
		if permitted {
			want, name = core.Permit, "permit"
		}
		if len(reqs) == 0 {
			p.fail(fmt.Errorf("the replayed ops cause no %s decision to replay", name))
			continue
		}
		ds := make([]core.Decision, replayBatch)
		invoke := make([]float64, batches)
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for k := range ds {
				r := reqs[(b*replayBatch+k)%len(reqs)]
				ds[k] = reg.InvokeContext(ctx, r.callout, r.req)
			}
			t1 := time.Now()
			for k, d := range ds {
				r := reqs[(b*replayBatch+k)%len(reqs)]
				log.Append(audit.Record{
					RequestID: "probe", Subject: r.req.Subject, Action: r.req.Action, JobID: r.req.JobID,
					JobOwner: r.req.JobOwner, PDP: r.callout, Effect: d.Effect.String(), Source: d.Source, Reason: d.Reason,
				})
			}
			t2 := time.Now()
			invoke[b] = float64(t1.Sub(t0)) / 1e3 / replayBatch
			appendUs = append(appendUs, float64(t2.Sub(t1))/1e3/replayBatch)
			for _, d := range ds {
				if d.Effect != want {
					p.fail(fmt.Errorf("callout replay: wanted %s, got %s (%s)", want, d.Effect, d.Reason))
					break
				}
			}
		}
		p.out["core.invoke_"+name+"_us"] = medianFloat(invoke)

		compiled := p.st.community.Compiled()
		p.out["policy.eval_"+name+"_us"] = perCall(9, replayBatch, func(i int) {
			r := reqs[i%len(reqs)].req
			d := compiled.Evaluate(&policy.Request{Subject: r.Subject, Action: r.Action, JobOwner: r.JobOwner, Spec: r.Spec})
			// The community source alone decides every variant but
			// maxtime=600, which only the local source refuses.
			if d.Allowed != permitted && !(d.Allowed && r.Spec.Get("maxtime") == "600") {
				p.fail(fmt.Errorf("policy replay: allowed=%v for a request built permitted=%v (%s)", d.Allowed, permitted, d.Reason))
			}
		})
	}
	p.out["audit.append_us"] = medianFloat(appendUs)
	t0 := time.Now()
	log.Flush()
	p.out["audit.flush_ms"] = float64(time.Since(t0)) / 1e6
}

// policyInstall prices what set-up pays per policy version: compiling the
// community policy, and replacing it in its store, which also runs the
// resource's OnChange hooks (the static analyzer among them).
func (p *probe) policyInstall() {
	pol := p.st.community.Current()
	p.out["policy.compile_ms"] = perCall(5, 1, func(int) { policy.Compile(pol) }) / 1e3
	p.out["policy.store_replace_ms"] = perCall(3, 1, func(int) { p.st.community.Replace(pol) }) / 1e3
}

// jobControl prices the local scheduler at the workload's live-job count.
func (p *probe) jobControl() {
	cluster := p.st.res.Cluster
	spec := jobcontrol.JobSpec{Executable: "app", Account: account, Count: 2, Duration: 24 * time.Hour, MaxTime: 30 * time.Minute}
	const batches = 9
	var submit, lookup, cancel [batches]float64
	ids := make([]string, replayBatch)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for k := range ids {
			j, err := cluster.Submit(spec)
			if err != nil {
				p.fail(err)
				return
			}
			ids[k] = j.ID
		}
		t1 := time.Now()
		for _, id := range ids {
			_, err := cluster.Lookup(id)
			p.fail(err)
		}
		t2 := time.Now()
		for _, id := range ids {
			p.fail(cluster.Cancel(id, "probe"))
		}
		t3 := time.Now()
		submit[b] = float64(t1.Sub(t0)) / 1e3 / replayBatch
		lookup[b] = float64(t2.Sub(t1)) / 1e3 / replayBatch
		cancel[b] = float64(t3.Sub(t2)) / 1e3 / replayBatch
	}
	p.out["jobcontrol.submit_us"] = medianFloat(submit[:])
	p.out["jobcontrol.lookup_us"] = medianFloat(lookup[:])
	p.out["jobcontrol.cancel_us"] = medianFloat(cancel[:])
}
