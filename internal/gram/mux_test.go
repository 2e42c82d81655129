package gram

import (
	"bufio"
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/faultinject"
	"gridauth/internal/gsi"
)

// rawConn dials the env gatekeeper and authenticates with the old
// symmetric handshake — a protocol-version-1 client: no feature
// announcement, no message IDs, strictly serial request/reply.
func rawConn(t *testing.T, e *env, dn gsi.DN) (net.Conn, *bufio.Reader) {
	t.Helper()
	cred, ok := e.creds[dn]
	if !ok {
		t.Fatalf("no credential for %s", dn)
	}
	proxy, err := gsi.Delegate(cred, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_, br, err := gsi.NewAuthenticator(proxy, e.trust).HandshakeClient(conn, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn, br
}

// TestLegacyClientAgainstMuxServer is the version-negotiation proof: an
// old client that never heard of FeatureMux or message IDs completes a
// full submit/status/cancel conversation against the new gatekeeper.
func TestLegacyClientAgainstMuxServer(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	conn, br := rawConn(t, e, boDN)

	if err := WriteMessage(conn, &Message{Type: MsgJobRequest, RSL: boJob}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err != nil {
		t.Fatal(reply.Err)
	}
	if reply.ID != 0 {
		t.Fatalf("server put ID %d on a reply to an ID-less client", reply.ID)
	}
	contact := reply.Contact
	if contact == "" {
		t.Fatal("submit reply carried no job contact")
	}

	if err := WriteMessage(conn, &Message{Type: MsgManage, JobContact: contact, Action: ManageStatus}); err != nil {
		t.Fatal(err)
	}
	reply, err = ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err != nil {
		t.Fatal(reply.Err)
	}
	if reply.State == "" || reply.ID != 0 {
		t.Fatalf("status reply state=%q id=%d", reply.State, reply.ID)
	}

	if err := WriteMessage(conn, &Message{Type: MsgManage, JobContact: contact, Action: ManageCancel}); err != nil {
		t.Fatal(err)
	}
	reply, err = ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err != nil {
		t.Fatal(reply.Err)
	}
}

// TestClientRefusesGatekeeperWithoutMux: the client speaks only protocol
// version 2, so an acceptor that authenticates without announcing
// FeatureMux is refused, with an error that names the missing feature.
func TestClientRefusesGatekeeperWithoutMux(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	gkCred, err := e.ca.Issue(gkDN, gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			accepted <- err
			return
		}
		defer conn.Close()
		_, br, err := gsi.NewAuthenticator(gkCred, e.trust).HandshakeAccept(conn)
		accepted <- err
		if err == nil {
			_, _ = br.ReadByte() // until the client hangs up
		}
	}()
	proxy, err := gsi.Delegate(e.creds[boDN], time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(l.Addr().String(), proxy, e.trust)
	defer c.Close()
	_, err = c.Submit(boJob, "")
	if err == nil || !strings.Contains(err.Error(), FeatureMux) {
		t.Fatalf("submit to a gatekeeper without %s = %v, want a refusal naming it", FeatureMux, err)
	}
	if err := <-accepted; err != nil {
		t.Fatalf("the acceptor's handshake failed (%v), so the refusal was not the client's", err)
	}
}

// TestMultiplexedConcurrentManagement hammers one shared connection with
// concurrent status requests against two jobs held in different states.
// A demultiplexing bug (a reply routed to the wrong caller) surfaces as
// the wrong job's state.
func TestMultiplexedConcurrentManagement(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)

	contactA, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	contactB, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := bo.Cancel(contactB); err != nil {
		t.Fatal(err)
	}

	stA, err := bo.Status(contactA)
	if err != nil {
		t.Fatal(err)
	}
	if stA.State == StateCanceled {
		t.Fatal("job A unexpectedly canceled")
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				sA, err := bo.Status(contactA)
				if err != nil {
					t.Error(err)
					return
				}
				if sA.State != stA.State {
					t.Errorf("job A state %q, want %q (misrouted reply?)", sA.State, stA.State)
					return
				}
				sB, err := bo.Status(contactB)
				if err != nil {
					t.Error(err)
					return
				}
				if sB.State != StateCanceled {
					t.Errorf("job B state %q, want %q (misrouted reply?)", sB.State, StateCanceled)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestOversizedMessageTerminatesCleanly sends a frame over
// MaxMessageSize: the server must report the error (framing is lost, so
// the connection closes) without disturbing service for other clients.
func TestOversizedMessageTerminatesCleanly(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	conn, br := rawConn(t, e, boDN)

	big := make([]byte, MaxMessageSize+64)
	for i := range big {
		big[i] = 'a'
	}
	big[len(big)-1] = '\n'
	// The server stops reading mid-line, so this write may die with a
	// reset; that is part of the expected teardown.
	_, _ = conn.Write(big)

	// Either the error reply arrives or the connection is already gone —
	// both are clean terminations. What must not happen is the server
	// keeping the desynced stream in service.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := ReadMessage(br)
	if err == nil {
		if reply.Err == nil {
			t.Fatalf("oversized frame got a success reply: %+v", reply)
		}
		if reply.Err.Code != CodeInternal {
			t.Fatalf("oversized frame error code = %v, want %v", reply.Err.Code, CodeInternal)
		}
		if _, err := ReadMessage(br); err == nil {
			t.Fatal("connection still serving after framing loss")
		}
	}

	// The gatekeeper itself is unharmed.
	bo := e.client(boDN)
	if _, err := bo.Submit(boJob, ""); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedMessageKeepsConnection sends complete frames the
// gatekeeper cannot serve: an undecodable one, and a subscription
// request naming a live job — a message type the protocol does not
// have. Framing survives, so each is answered in its turn without a
// PDP call or a decision record, the same connection serves the next
// request, and the connection still idles out.
func TestMalformedMessageKeepsConnection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame string // {contact} stands for the live job's contact
		code  Code
		msg   string
	}{
		{"undecodable", "this is not json\n", CodeBadRSL, ""},
		{"subscribe-request", `{"type":"subscribe-request","jobContact":"{contact}"}` + "\n", CodeInternal, `unknown message type "subscribe-request"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			pdp := core.PDPFunc{ID: "count", Fn: func(context.Context, *core.Request) core.Decision {
				calls.Add(1)
				return core.PermitDecision("count", "ok")
			}}
			log, err := audit.NewPipeline(audit.Config{Capacity: 64})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { log.Close() })
			e := newEnv(t, envOpts{
				mode:     AuthzCallout,
				registry: func(r *core.Registry) { r.Bind(core.CalloutJobManager, pdp) },
				tune: func(c *Config) {
					c.Audit = log
					c.IdleTimeout = 300 * time.Millisecond
				},
			})
			contact, err := e.client(boDN).Submit(boJob, "")
			if err != nil {
				t.Fatal(err)
			}
			conn, br := rawConn(t, e, boDN)
			calls0, records0 := calls.Load(), log.Len()

			frame := strings.ReplaceAll(tc.frame, "{contact}", contact)
			if _, err := conn.Write([]byte(frame)); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			reply, err := ReadMessage(br)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Err == nil || reply.Err.Code != tc.code || !strings.Contains(reply.Err.Message, tc.msg) {
				t.Fatalf("reply %+v (error %v), want %v %q", reply, reply.Err, tc.code, tc.msg)
			}
			if n := calls.Load() - calls0; n != 0 {
				t.Errorf("the frame reached the PDP %d time(s)", n)
			}
			if n := log.Len() - records0; n != 0 {
				t.Errorf("the frame wrote %d decision record(s)", n)
			}

			if err := WriteMessage(conn, &Message{Type: MsgJobRequest, RSL: boJob}); err != nil {
				t.Fatal(err)
			}
			reply, err = ReadMessage(br)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Err != nil || reply.Contact == "" {
				t.Fatalf("request after the frame: %+v (error %v), want a job contact", reply, reply.Err)
			}

			idle := time.Now()
			if _, err := ReadMessage(br); err == nil {
				t.Fatal("a quiet connection got a frame instead of being idled out")
			} else if isTimeout(err) || time.Since(idle) > 3*time.Second {
				t.Fatalf("connection still open %v after its last reply: %v", time.Since(idle), err)
			}
		})
	}
}

// TestHandshakeDeadlineFreesStalledConn: a peer that connects and sends
// nothing is held only for gsi.DefaultHandshakeTimeout instead of
// pinning a gatekeeper goroutine forever.
func TestHandshakeDeadlineFreesStalledConn(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	conn := faultinject.NewStalledConn()
	defer conn.Close()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.gk.handleConn(context.Background(), conn)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler still waiting on a silent peer: no handshake deadline was set")
	}
	if got := conn.Deadline().Sub(start); got < gsi.DefaultHandshakeTimeout-time.Second || got > gsi.DefaultHandshakeTimeout+2*time.Second {
		t.Errorf("handshake bounded at %v, want gsi.DefaultHandshakeTimeout (%v)", got, gsi.DefaultHandshakeTimeout)
	}
}

// TestIdleTimeoutAndResumedReconnect lets the server idle the client's
// connection out, then issues another request: the client must
// transparently reconnect — via GSI session resumption, because the
// first handshake granted a ticket.
func TestIdleTimeoutAndResumedReconnect(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy, tune: func(c *Config) {
		c.IdleTimeout = 150 * time.Millisecond
	}})
	bo := e.client(boDN)
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}

	// The idle timeout fires server-side; the client's demux loop sees
	// the close and resets its connection state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		bo.mu.Lock()
		gone := bo.conn == nil
		bo.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection was never closed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	st, err := bo.Status(contact)
	if err != nil {
		t.Fatal(err)
	}
	if st.Owner != boDN {
		t.Fatalf("status owner = %s, want %s", st.Owner, boDN)
	}
	if !bo.Resumed() {
		t.Fatal("reconnect did not use session resumption")
	}
}

// TestReconnectAfterClose proves recovery after an explicit reset: the
// next call re-dials and resumes the GSI session from the cached ticket.
func TestReconnectAfterClose(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	bo := e.client(boDN)
	contact, err := bo.Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	if bo.Resumed() {
		t.Fatal("first connection cannot have been resumed")
	}
	bo.Close()
	st, err := bo.Status(contact)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == "" {
		t.Fatal("status reply carried no state")
	}
	if !bo.Resumed() {
		t.Fatal("reconnect did not resume the GSI session")
	}
}
