package gsi

import (
	"context"
	"io"
	"net"
	"sync"
)

// Server is the connection lifecycle every GSI service shares: it
// accepts on any number of listeners, runs a handler per connection and
// shuts down through one Close. The handler runs its own handshake
// (HandshakeAccept bounds itself), so a service that serves
// unauthenticated peers needs no branch here.
type Server struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup // accept loops and handlers
}

// NewServer returns a server ready to Serve.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		ctx:       ctx,
		cancel:    cancel,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on l until Close, running handle on each in
// a goroutine of its own with a context that Close cancels, and closing
// the connection when handle returns. It returns nil once Close has
// run, at once if Close ran before it, or the listener's error.
func (s *Server) Serve(l net.Listener, handle func(context.Context, net.Conn)) error {
	if !add(s, s.listeners, l) {
		_ = l.Close()
		return nil
	}
	defer remove(s, s.listeners, l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.ctx.Err() != nil { // Close closed l
				return nil
			}
			return err
		}
		// A connection accepted while Close runs is either in the set
		// Close closes or refused here.
		if !add(s, s.conns, conn) {
			_ = conn.Close()
			return nil
		}
		go func() {
			defer remove(s, s.conns, conn)
			defer conn.Close()
			handle(s.ctx, conn)
		}()
	}
}

// add registers k in set, and takes a WaitGroup slot for it, under the
// lock Close takes, unless the server is closed.
func add[K comparable](s *Server, set map[K]struct{}, k K) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	set[k] = struct{}{}
	s.wg.Add(1)
	return true
}

// remove forgets k and releases its slot.
func remove[K comparable](s *Server, set map[K]struct{}, k K) {
	s.mu.Lock()
	delete(set, k)
	s.mu.Unlock()
	s.wg.Done()
}

// Close cancels the handlers' context, closes every listener and then
// every connection, and waits for every accept loop and handler to
// return.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	closers := make([]io.Closer, 0, len(s.listeners)+len(s.conns))
	for l := range s.listeners {
		closers = append(closers, l)
	}
	for c := range s.conns {
		closers = append(closers, c)
	}
	s.mu.Unlock()
	for _, c := range closers {
		_ = c.Close()
	}
	s.wg.Wait()
}
