package gram

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/faultinject"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
)

// gatedEnv is a callout-mode deployment whose one PDP permits
// everything from behind a gate, so a test decides how many requests
// are in progress and for how long.
func gatedEnv(t *testing.T, tune func(*Config)) (*env, *faultinject.GatePDP) {
	t.Helper()
	gate := faultinject.NewGatePDP(core.PDPFunc{ID: "permit", Fn: func(*core.Request) core.Decision {
		return core.PermitDecision("permit", "ok")
	}})
	e := newEnv(t, envOpts{
		mode: AuthzCallout,
		registry: func(r *core.Registry) {
			r.Bind(core.CalloutJobManager, gate)
		},
		tune: tune,
	})
	return e, gate
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// settled reports goroutines at or below base once the ones on their
// way out have left.
func settled(t *testing.T, base int) {
	t.Helper()
	eventually(t, fmt.Sprintf("goroutines to return to %d (now %d)", base, runtime.NumGoroutine()), func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// muxConn authenticates a raw protocol-version-2 connection: the test
// writes and reads frames itself.
func muxConn(t *testing.T, e *env, dn gsi.DN) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_, br, err := muxAuth(t, e, dn, gsi.WithFeatures(FeatureMux)).HandshakeClient(conn, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn, br
}

// muxAuth is a client-side authenticator over a fresh proxy of dn.
func muxAuth(t *testing.T, e *env, dn gsi.DN, opts ...gsi.AuthOption) *gsi.Authenticator {
	t.Helper()
	proxy, err := gsi.Delegate(e.creds[dn], time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	return gsi.NewAuthenticator(proxy, e.trust, opts...)
}

// TestConnWorkersBoundDispatches saturates one connection's workers: no
// more than ConnWorkers requests are ever in progress, the reader waits
// (and says so in gram_queue_waiting) while they are, and everything is
// served once they free up.
func TestConnWorkersBoundDispatches(t *testing.T) {
	const bound, requests = 3, 10
	m := obs.NewMetrics()
	e, gate := gatedEnv(t, func(c *Config) {
		c.ConnWorkers = bound
		c.Metrics = m
	})
	bo := e.client(boDN)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := bo.Submit(boJob, ""); err != nil {
				t.Error(err)
			}
		}()
	}
	eventually(t, "the workers to fill and the reader to queue", func() bool {
		now, _ := gate.Held()
		return now == bound && m.QueueWaiting.Load() == 1
	})
	time.Sleep(50 * time.Millisecond) // a request past the bound would show up at the gate
	if now, peak := gate.Held(); now != bound || peak != bound {
		t.Fatalf("%d requests in progress (peak %d) with ConnWorkers = %d", now, peak, bound)
	}
	if got := m.RequestsInflight.Load(); got != bound {
		t.Errorf("gram_requests_inflight = %d, want %d", got, bound)
	}
	gate.Release()
	wg.Wait()
	if _, peak := gate.Held(); peak != bound {
		t.Errorf("peak requests in progress = %d, want %d", peak, bound)
	}
	if got := m.QueueWaiting.Load(); got != 0 {
		t.Errorf("gram_queue_waiting = %d after the burst, want 0", got)
	}
	if got := m.Requests.Load(); got != requests {
		t.Errorf("gram_requests_total = %d, want %d", got, requests)
	}
}

// TestSequentialRequestsReuseWorker: a connection's worker outlives its
// request, so a thousand requests one after another add no goroutines.
func TestSequentialRequestsReuseWorker(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy, tune: func(c *Config) { c.ConnWorkers = 1 }})
	bo := e.client(boDN)
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		if _, err := bo.Status(contact); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("request %d: %d goroutines, %d after the first request", i, n, base)
		}
	}
}

// TestCloseDrainsWorkers: Close with requests in progress returns only
// after their workers have finished, and leaves no goroutine behind.
func TestCloseDrainsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	e, gate := gatedEnv(t, nil)
	bo := e.client(boDN)
	results := make(chan error, 4)
	for i := 0; i < cap(results); i++ {
		go func() {
			_, err := bo.Submit(boJob, "")
			results <- err
		}()
	}
	eventually(t, "four requests in progress", func() bool {
		now, _ := gate.Held()
		return now == cap(results)
	})
	e.gk.Close() // cancels the requests' context, which the gate honours
	if now, _ := gate.Held(); now != 0 {
		t.Fatalf("Close returned with %d requests in progress", now)
	}
	for i := 0; i < cap(results); i++ {
		if err := <-results; err == nil {
			t.Error("a request abandoned at the gate was answered with a job contact")
		}
	}
	<-e.done
	bo.Close()
	settled(t, base)
}

// TestSubscribeDrainsWorkers: a subscription takes the connection over
// only after the reply to every earlier request has been written and
// the workers have gone.
func TestSubscribeDrainsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	e, gate := gatedEnv(t, nil)
	conn, br := muxConn(t, e, boDN)
	var frames bytes.Buffer
	for _, m := range []*Message{
		{Type: MsgJobRequest, ID: 1, RSL: boJob},
		{Type: MsgJobRequest, ID: 2, RSL: boJob},
		{Type: MsgSubscribe, JobContact: "gram://nowhere/job/0"},
	} {
		if err := WriteMessage(&frames, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}
	eventually(t, "both job requests in progress", func() bool {
		now, _ := gate.Held()
		return now == 2
	})
	time.Sleep(50 * time.Millisecond) // a takeover that did not wait would answer the subscription now
	gate.Release()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		reply, err := ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != MsgJobReply || reply.Err != nil || reply.Contact == "" {
			t.Fatalf("frame %d is %+v (error %v), want a job reply: the subscription overtook a request in progress", i, reply, reply.Err)
		}
		seen[reply.ID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("job replies carried IDs %v, want 1 and 2", seen)
	}
	reply, err := ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err == nil || reply.Err.Code != CodeNoSuchJob {
		t.Fatalf("subscription reply %+v (error %v), want no-such-job", reply, reply.Err)
	}
	// The refused subscription ends the connection, and with it the
	// handler; no worker may be left parked behind it.
	if _, err := ReadMessage(br); err == nil {
		t.Fatal("connection still open after a refused subscription")
	}
	conn.Close()
	e.gk.Close()
	<-e.done
	settled(t, base)
}

// TestNonReadingPeerIsDropped: a peer that sends requests and never
// reads a reply is cut off once a reply has waited IdleTimeout, instead
// of pinning the handler, its workers and the connection slot for good.
func TestNonReadingPeerIsDropped(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []gsi.AuthOption
	}{
		{"multiplexed", []gsi.AuthOption{gsi.WithFeatures(FeatureMux)}},
		{"serial", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := obs.NewMetrics()
			e := newEnv(t, envOpts{mode: AuthzLegacy, tune: func(c *Config) {
				c.IdleTimeout = 150 * time.Millisecond
				c.Metrics = m
			}})
			// More requests than workers, so the reader ends up waiting
			// on the hand-off behind writers that cannot finish.
			var script bytes.Buffer
			for id := uint64(1); id <= 20; id++ {
				msg := &Message{Type: MsgManage, ID: id, JobContact: "gram://nowhere/job/0", Action: ManageStatus}
				if err := WriteMessage(&script, msg); err != nil {
					t.Fatal(err)
				}
			}
			peer := faultinject.NewNonReader(muxAuth(t, e, boDN, tc.opts...), script.Bytes())
			defer peer.Close()
			exited := make(chan struct{})
			go func() {
				defer close(exited)
				e.gk.handleConn(peer.Conn)
			}()
			if err := <-peer.Sent; err != nil {
				t.Fatalf("non-reading peer could not send its requests: %v", err)
			}
			select {
			case <-exited:
			case <-time.After(5 * time.Second):
				t.Fatal("connection handler still pinned by a peer that does not read")
			}
			if got := m.ConnsActive.Load(); got != 0 {
				t.Errorf("gram_connections_active = %d, want 0", got)
			}
			if got := m.QueueWaiting.Load(); got != 0 {
				t.Errorf("gram_queue_waiting = %d, want 0", got)
			}
			if _, err := e.client(boDN).Submit(boJob, ""); err != nil {
				t.Errorf("next client not served: %v", err)
			}
		})
	}
}
