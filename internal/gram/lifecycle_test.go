package gram

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"gridauth/internal/cluster"
	"gridauth/internal/core"
	"gridauth/internal/gridftp"
	"gridauth/internal/gridmap"
	"gridauth/internal/gsi"
	"gridauth/internal/jobcontrol"
	"gridauth/internal/policy"
)

// pipeListener hands out one connection, the server end of a net.Pipe:
// at once, or, with afterClose, only once its own Close has been called.
// Every later Accept waits for Close and fails. accepting receives a
// value per Accept call, so a test can tell when the accept loop is
// waiting for its first or its second connection.
type pipeListener struct {
	conn       net.Conn
	afterClose bool
	accepting  chan struct{} // two slots: the test waits for at most the second call
	closed     chan struct{}
	closeOnce  sync.Once
	handOnce   sync.Once
}

func newPipeListener(conn net.Conn, afterClose bool) *pipeListener {
	return &pipeListener{conn: conn, afterClose: afterClose, accepting: make(chan struct{}, 2), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case l.accepting <- struct{}{}:
	default:
	}
	if l.afterClose {
		<-l.closed
	}
	var conn net.Conn
	l.handOnce.Do(func() { conn = l.conn })
	if conn != nil {
		return conn, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// service is one GSI service under its public lifecycle.
type service interface {
	Serve(net.Listener) error
	Close()
}

// TestCloseOwnsEveryConnection: Close closes, and waits for, every
// connection its service accepted: one accepted while Close runs is
// closed, never served, and a peer that never reads cannot hold Close.
func TestCloseOwnsEveryConnection(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=Lifecycle CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	cred, err := ca.Issue("/O=Grid/CN=service", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	services := []struct {
		name string
		new  func(t *testing.T) service
	}{
		{"gatekeeper", func(t *testing.T) service {
			gk, err := NewGatekeeper(Config{Credential: cred, Trust: trust, GridMap: gridmap.New(), Cluster: jobcontrol.NewCluster(1)})
			if err != nil {
				t.Fatal(err)
			}
			return gk
		}},
		{"gridftp", func(t *testing.T) service {
			srv, err := gridftp.NewServer(cred, trust, core.NewRegistry(), gridftp.NewStore())
			if err != nil {
				t.Fatal(err)
			}
			return srv
		}},
		{"publisher", func(*testing.T) service {
			// Unauthenticated: it writes to a subscriber at once.
			return cluster.NewPublisher(cluster.PublisherConfig{})
		}},
	}
	for _, svc := range services {
		t.Run(svc.name+"/accepted-during-shutdown", func(t *testing.T) {
			s := svc.new(t)
			client, server := net.Pipe()
			defer client.Close()
			l := newPipeListener(server, true)
			served := serve(s, l)
			<-l.accepting
			s.Close()
			<-served
			_ = client.SetReadDeadline(time.Now().Add(time.Second))
			n, err := client.Read(make([]byte, 1))
			if n > 0 || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection accepted during Close still open after it: read %d bytes, %v", n, err)
			}
		})
		t.Run(svc.name+"/non-reading-peer", func(t *testing.T) {
			s := svc.new(t)
			client, server := net.Pipe()
			defer client.Close()
			l := newPipeListener(server, false)
			served := serve(s, l)
			<-l.accepting
			<-l.accepting // the connection is handed to its handler
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				s.Close()
			}()
			select {
			case <-closed:
			case <-time.After(3 * time.Second):
				client.Close() // frees the handler Close waits on
				t.Fatal("Close held by a peer that never reads")
			}
			<-served
		})
	}
}

// serve runs s.Serve(l) and reports its return.
func serve(s service, l net.Listener) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(l)
	}()
	return done
}

// TestPooledReadersStayWithTheirConnection runs cold connections side by
// side against one gatekeeper and one GridFTP server: GRAM submits and
// statuses on fresh clients, GridFTP puts and gets on fresh clients.
// Both ends of every connection borrow their read buffer from one pool,
// so a reader returned while still in use would hand one peer's frames
// to another connection. Each reply must answer its own request: a
// submit's job carries the submitter and the request's own arguments, a
// status names that owner, a get returns what its own put stored.
func TestPooledReadersStayWithTheirConnection(t *testing.T) {
	const workers, rounds = 4, 8
	run := func(t *testing.T, op func(w, i int) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, workers*rounds)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if err := op(w, i); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(time.Minute):
			// A reply read on the wrong connection leaves its caller
			// waiting for good.
			t.Fatal("cold connections stalled: a reply never reached its caller")
		}
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	t.Run("gatekeeper", func(t *testing.T) {
		e := newEnv(t, envOpts{mode: AuthzCallout})
		type user struct {
			dn    gsi.DN
			proxy *gsi.Credential
			rsl   string
		}
		var users []user
		for dn, rsl := range map[gsi.DN]string{
			boDN:   `&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)`,
			kateDN: `&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=1)`,
		} {
			proxy, err := gsi.Delegate(e.creds[dn], time.Hour, false)
			if err != nil {
				t.Fatal(err)
			}
			users = append(users, user{dn, proxy, rsl})
		}
		run(t, func(w, i int) error {
			u := users[w%len(users)]
			args := fmt.Sprintf("w%d-r%d", w, i)
			c := NewClient(e.addr, u.proxy, e.trust)
			contact, err := c.Submit(u.rsl+"(arguments="+args+")", "")
			c.Close()
			if err != nil {
				return fmt.Errorf("%s submit %s: %v", u.dn, args, err)
			}
			jmi, ok := e.gk.Job(contact)
			if !ok || jmi.Owner != u.dn || jmi.Spec.Get("arguments") != args {
				return fmt.Errorf("%s submit %s got %s, a job of someone else's request", u.dn, args, contact)
			}
			c = NewClient(e.addr, u.proxy, e.trust)
			st, err := c.Status(contact)
			c.Close()
			if err != nil || st.Owner != u.dn {
				return fmt.Errorf("%s status of %s = %+v, %v", u.dn, contact, st, err)
			}
			return nil
		})
	})

	t.Run("gridftp", func(t *testing.T) {
		ca, err := gsi.NewCA("/O=Grid/CN=Pool CA")
		if err != nil {
			t.Fatal(err)
		}
		trust := gsi.NewTrustStore(ca.Certificate())
		svc, err := ca.Issue("/O=Grid/CN=gridftp", gsi.KindService)
		if err != nil {
			t.Fatal(err)
		}
		var creds []*gsi.Credential
		for _, dn := range []gsi.DN{"/O=Grid/CN=Alice", "/O=Grid/CN=Bob"} {
			cred, err := ca.Issue(dn, gsi.KindUser)
			if err != nil {
				t.Fatal(err)
			}
			creds = append(creds, cred)
		}
		reg := core.NewRegistry()
		reg.Bind(gridftp.CalloutGridFTP, &core.PolicyPDP{Policy: policy.MustParse(`/O=Grid: &(action = get put)(dir = /pool)`, "site")})
		srv, err := gridftp.NewServer(svc, trust, reg, gridftp.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := serve(srv, l)
		t.Cleanup(func() {
			srv.Close()
			<-served
		})
		run(t, func(w, i int) error {
			p, data := fmt.Sprintf("/pool/w%d-r%d", w, i), []byte(fmt.Sprintf("data of worker %d, round %d", w, i))
			c := gridftp.NewClient(l.Addr().String(), creds[w%len(creds)], trust)
			err := c.Put(p, data)
			c.Close()
			if err != nil {
				return fmt.Errorf("put %s: %v", p, err)
			}
			c = gridftp.NewClient(l.Addr().String(), creds[w%len(creds)], trust)
			got, err := c.Get(p)
			c.Close()
			if err != nil || !bytes.Equal(got, data) {
				return fmt.Errorf("get %s = %q, %v; its put stored %q", p, got, err, data)
			}
			return nil
		})
	})
}
