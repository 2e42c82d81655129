package gridftp

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/faultinject"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
)

// countDials makes c count its dials into n, wrapping the first one's
// connection in first when it is set.
func countDials(c *Client, n *atomic.Int32, first func(net.Conn) net.Conn) {
	c.dial = func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if n.Add(1) == 1 && err == nil && first != nil {
			conn = first(conn)
		}
		return conn, err
	}
}

// handshakes reports a server's handshake counters.
func handshakes(m *obs.Metrics) (full, resumed, failed, rejected uint64) {
	return m.HandshakesFull.Load(), m.HandshakesResumed.Load(), m.HandshakesFailed.Load(), m.TicketsRejected.Load()
}

// TestReconnectResumes: every client after the first a credential opens
// in the process resumes its session with the server, whichever Client
// object it is — the session cache is the process's, not the client's.
// A Credential that merely carries the same chain does not, and the same
// credential presenting another assertion set runs a full handshake.
func TestReconnectResumes(t *testing.T) {
	e := newFtpEnv(t)
	m := obs.NewMetrics()
	e.start(t, "127.0.0.1:0", e.counted(t, m))
	for i := 0; i < 3; i++ {
		if err := e.client(t, e.alice).Put("/home/alice/r.txt", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if full, resumed, failed, _ := handshakes(m); full != 1 || resumed != 2 || failed != 0 {
		t.Fatalf("three clients of one credential: %d full, %d resumed, %d failed handshakes; want 1, 2, 0", full, resumed, failed)
	}
	impostor := &gsi.Credential{Chain: e.alice.Chain, Key: e.bob.Key}
	if err := e.client(t, impostor).Put("/home/alice/r.txt", []byte("x")); err == nil {
		t.Fatal("a credential with alice's chain and bob's key was served")
	}
	if full, resumed, failed, _ := handshakes(m); full != 1 || resumed != 2 || failed != 1 {
		t.Errorf("after the impostor: %d full, %d resumed, %d failed handshakes; want 1, 2, 1", full, resumed, failed)
	}
	as := &gsi.Assertion{VO: "NFC", Holder: aliceDN, NotBefore: time.Now().Add(-time.Minute), NotAfter: time.Now().Add(time.Hour)}
	if err := gsi.SignAssertion(as, e.svc); err != nil {
		t.Fatal(err)
	}
	c := NewClient(e.addr, e.alice, e.trust, as)
	defer c.Close()
	if err := c.Put("/home/alice/r.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if full, resumed, _, _ := handshakes(m); full != 2 || resumed != 2 {
		t.Errorf("after a new assertion set: %d full, %d resumed handshakes; want 2, 2", full, resumed)
	}
}

// TestConcurrentClientsShareSessions: two credentials' transfers run at
// once, each through a fresh Client, so the process's session cache is
// read and written from several goroutines together. Every transfer is
// served and every handshake is a full one or a resumption.
func TestConcurrentClientsShareSessions(t *testing.T) {
	e := newFtpEnv(t)
	m := obs.NewMetrics()
	e.start(t, "127.0.0.1:0", e.counted(t, m))
	const workers, rounds = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var err error
				if w%2 == 0 {
					c := NewClient(e.addr, e.alice, e.trust)
					err = c.Put("/home/alice/w"+string(rune('0'+w)), []byte("x"))
					c.Close()
				} else {
					c := NewClient(e.addr, e.bob, e.trust)
					_, err = c.List("/public")
					c.Close()
				}
				if err != nil {
					t.Errorf("worker %d, round %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	full, resumed, failed, _ := handshakes(m)
	if failed != 0 || full+resumed != workers*rounds || resumed == 0 {
		t.Errorf("%d full, %d resumed, %d failed handshakes; want %d in all, some resumed, none failed", full, resumed, failed, workers*rounds)
	}
}

// TestServerRestartFallsBackOnSameConnection: a server restarted on the
// same address holds a new ticket secret, so it refuses the client's
// ticket; the client completes a full handshake on the same connection
// and the put succeeds.
func TestServerRestartFallsBackOnSameConnection(t *testing.T) {
	e := newFtpEnv(t)
	if err := e.client(t, e.alice).Put("/home/alice/before.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	e.server.Close()
	m := obs.NewMetrics()
	e.start(t, e.addr, e.counted(t, m))

	c := NewClient(e.addr, e.alice, e.trust)
	defer c.Close()
	var dials atomic.Int32
	countDials(c, &dials, nil)
	if err := c.Put("/home/alice/after.txt", []byte("y")); err != nil {
		t.Fatalf("put after the restart: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("the client dialed %d times, want 1: the fallback runs on the same connection", n)
	}
	if full, resumed, failed, rejected := handshakes(m); full != 1 || resumed != 0 || failed != 0 || rejected != 1 {
		t.Errorf("restarted server: %d full, %d resumed, %d failed handshakes, %d tickets rejected; want 1, 0, 0, 1", full, resumed, failed, rejected)
	}
	// The fallback granted a ticket of the new server's.
	if err := e.client(t, e.alice).Put("/home/alice/again.txt", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, resumed, _, _ := handshakes(m); resumed != 1 {
		t.Errorf("the next client did not resume on the fallback's ticket (%d resumed)", resumed)
	}
}

// TestResumeCutOffRedialsOnce: a server that hangs up between its resume
// accept and the client's confirm costs the client one redial, with a
// full handshake, and not the put.
func TestResumeCutOffRedialsOnce(t *testing.T) {
	e := newFtpEnv(t)
	m := obs.NewMetrics()
	e.start(t, "127.0.0.1:0", e.counted(t, m))
	if err := e.client(t, e.alice).Put("/home/alice/a.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c := NewClient(e.addr, e.alice, e.trust)
	defer c.Close()
	var dials atomic.Int32
	countDials(c, &dials, func(conn net.Conn) net.Conn { return faultinject.CutAfterFrames(conn, 1) })
	if err := c.Put("/home/alice/b.txt", []byte("y")); err != nil {
		t.Fatalf("put through a resumption cut off on the wire: %v", err)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("the client dialed %d times, want 2: the cut-off resumption and one redial", n)
	}
	if full, resumed, failed, _ := handshakes(m); full != 2 || resumed != 0 || failed != 1 {
		t.Errorf("server saw %d full, %d resumed, %d failed handshakes; want 2 (first client, redial), 0, 1 (the cut-off)", full, resumed, failed)
	}
	if data, err := c.Get("/home/alice/b.txt"); err != nil || string(data) != "y" {
		t.Errorf("get on the redialed connection: %q, %v", data, err)
	}
}

// TestResumedSessionsAuthorizeAlike replays the package policy's
// matrix — alice and bob, every operation, in their own home and the
// other's — once over full handshakes and once over resumed sessions.
// Every response and every audit record (but its request ID and times)
// is the same.
func TestResumedSessionsAuthorizeAlike(t *testing.T) {
	e := newFtpEnv(t)
	m := obs.NewMetrics()
	e.start(t, "127.0.0.1:0", e.counted(t, m))
	type step struct {
		cred *gsi.Credential
		req  request
	}
	var matrix []step
	for _, user := range []struct {
		cred      *gsi.Credential
		own, peer string
	}{{e.alice, "alice", "bob"}, {e.bob, "bob", "alice"}} {
		for _, home := range []string{"/home/" + user.own, "/home/" + user.peer} {
			// put, get, list, delete: a pass leaves the store as it found it.
			f := home + "/matrix.txt"
			matrix = append(matrix,
				step{user.cred, request{Op: OpPut, Path: f, Data: []byte("m")}},
				step{user.cred, request{Op: OpGet, Path: f}},
				step{user.cred, request{Op: OpList, Path: home}},
				step{user.cred, request{Op: OpDelete, Path: f}})
		}
	}
	pass := func(client func(*gsi.Credential) *Client) (answers []response, records []audit.Record) {
		first := e.log.Len()
		for _, s := range matrix {
			c := client(s.cred)
			req := s.req
			resp, err := c.roundTrip(&req)
			c.Close()
			if err != nil {
				t.Fatalf("%s %s: %v", req.Op, req.Path, err)
			}
			answers = append(answers, *resp)
		}
		for _, rec := range e.log.Records()[first:] {
			rec.Seq, rec.RequestID, rec.Time, rec.Elapsed = 0, "", time.Time{}, 0
			records = append(records, rec)
		}
		return answers, records
	}
	// Full: clients without a session cache, as before resumption.
	fullAnswers, fullRecords := pass(func(cred *gsi.Credential) *Client {
		return &Client{addr: e.addr, auth: gsi.NewAuthenticator(cred, e.trust), dial: net.Dial}
	})
	if full, resumed, _, _ := handshakes(m); full != uint64(len(matrix)) || resumed != 0 {
		t.Fatalf("full pass: %d full and %d resumed handshakes, want %d and 0", full, resumed, len(matrix))
	}
	// Resumed: one full handshake per credential to get a ticket, then
	// every step resumes.
	for _, cred := range []*gsi.Credential{e.alice, e.bob} {
		if _, err := e.client(t, cred).List("/public"); err != nil {
			t.Fatal(err)
		}
	}
	before := e.log.Len()
	resumedAnswers, resumedRecords := pass(func(cred *gsi.Credential) *Client { return NewClient(e.addr, cred, e.trust) })
	if _, resumed, _, _ := handshakes(m); resumed != uint64(len(matrix)) {
		t.Fatalf("resumed pass: %d resumed handshakes, want %d", resumed, len(matrix))
	}
	if !reflect.DeepEqual(fullAnswers, resumedAnswers) {
		t.Errorf("answers differ:\n full    %+v\n resumed %+v", fullAnswers, resumedAnswers)
	}
	if len(fullRecords) != len(matrix) || !reflect.DeepEqual(fullRecords, resumedRecords) {
		t.Errorf("audit records differ (%d full, %d resumed, the matrix has %d):\n full    %+v\n resumed %+v",
			len(fullRecords), len(resumedRecords), len(matrix), fullRecords, resumedRecords)
	}
	var permits, denies int
	for _, rec := range e.log.Records()[before:] {
		switch rec.Effect {
		case "permit":
			permits++
		default:
			denies++
		}
	}
	if permits != 4 || denies != len(matrix)-4 {
		t.Errorf("the matrix decided %d permits and %d denials, want alice's four in her home and the rest denied", permits, denies)
	}
}

// TestResumeInteropWithPreChangePeers: a client that announces
// resumption completes against a server that issues no tickets (no
// grant leg follows), and a client without a session cache completes
// against a server that issues them (none is granted to it), on every
// connection.
func TestResumeInteropWithPreChangePeers(t *testing.T) {
	e := newFtpEnv(t)
	old := *e
	old.start(t, "127.0.0.1:0", gsi.NewAuthenticator(e.svc, e.trust)) // no issuer: announces no resumption
	for name, client := range map[string]func() *Client{
		"new client, pre-change server": func() *Client { return NewClient(old.addr, e.alice, e.trust) },
		"pre-change client, new server": func() *Client {
			return &Client{addr: e.addr, auth: gsi.NewAuthenticator(e.alice, e.trust), dial: net.Dial}
		},
	} {
		for i := 0; i < 2; i++ {
			c := client()
			err := c.Put("/home/alice/interop.txt", []byte(name))
			data, gerr := c.Get("/home/alice/interop.txt")
			c.Close()
			if err != nil || gerr != nil || string(data) != name {
				t.Fatalf("%s, connection %d: put %v, get %q %v", name, i+1, err, data, gerr)
			}
		}
	}
}

// TestServeAfterCloseReturns: Serve on a server already closed closes
// the listener and returns rather than accept forever.
func TestServeAfterCloseReturns(t *testing.T) {
	e := newFtpEnv(t)
	srv, err := NewServer(e.svc, e.trust, e.reg, e.store)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err != nil {
		t.Errorf("Serve after Close: %v", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "closed") {
		t.Errorf("listener still open after Serve returned: %v", err)
	}
}
