package gram

import (
	"errors"
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
