// Package gridftp demonstrates the paper's concluding plan — "to use the
// same mechanism to provide pluggable authorization in other components
// of the Globus Toolkit" — by putting a GridFTP-style data service behind
// the identical callout architecture that guards GRAM.
//
// The service stores files in an in-memory tree and serves get / put /
// delete / list operations over the same GSI-authenticated framed-JSON
// transport. Every operation is authorized through the callout registry
// under the CalloutGridFTP abstract type; requests are presented to the
// policy engine as RSL-style attributes (path, dir, size), so the same
// policy language — and the same PDP backends — govern data access:
//
//	/O=Grid/CN=Alice: &(action = get list)(dir = /public)
//	/O=Grid/CN=Alice: &(action = put)(dir = /home/alice)(size<=1048576)
package gridftp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path"
	"sort"
	"strconv"
	"sync"
	"time"

	"gridauth/internal/audit"
	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/jsonwire"
	"gridauth/internal/obs"
	"gridauth/internal/rsl"
)

// CalloutGridFTP is the abstract callout type the data service consults,
// parallel to core.CalloutJobManager.
const CalloutGridFTP = "globus_gridftp_authz"

// Operations, used directly as policy action names.
const (
	OpGet    = "get"
	OpPut    = "put"
	OpDelete = "delete"
	OpList   = "list"
)

// Errors surfaced by the client.
var (
	ErrDenied   = errors.New("gridftp: authorization denied")
	ErrNotFound = errors.New("gridftp: no such file")
)

// request/response wire format.
type request struct {
	Op   string `json:"op"`
	Path string `json:"path"`
	Size int64  `json:"size,omitempty"`
	Data []byte `json:"data,omitempty"`
}

type response struct {
	OK      bool     `json:"ok"`
	Code    string   `json:"code,omitempty"`
	Message string   `json:"message,omitempty"`
	Data    []byte   `json:"data,omitempty"`
	Names   []string `json:"names,omitempty"`
}

// Store is the in-memory file tree.
type Store struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{files: make(map[string][]byte)}
}

// Put writes a file.
func (s *Store) Put(p string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[path.Clean(p)] = append([]byte(nil), data...)
}

// Get reads a file.
func (s *Store) Get(p string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.files[path.Clean(p)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// Delete removes a file, reporting whether it existed.
func (s *Store) Delete(p string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p = path.Clean(p)
	_, ok := s.files[p]
	delete(s.files, p)
	return ok
}

// List returns the sorted names directly under dir.
func (s *Store) List(dir string) []string {
	dir = path.Clean(dir)
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	for p := range s.files {
		if path.Dir(p) == dir {
			seen[path.Base(p)] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Server is the authorization-guarded data service.
type Server struct {
	auth     *gsi.Authenticator
	registry *core.Registry
	store    *Store
	audit    *audit.Log

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	listener net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}
}

// NewServer builds a data service around a store, authorizing through
// the registry's CalloutGridFTP chain.
func NewServer(cred *gsi.Credential, trust *gsi.TrustStore, registry *core.Registry, store *Store) (*Server, error) {
	if cred == nil || trust == nil || registry == nil || store == nil {
		return nil, errors.New("gridftp: server needs credential, trust store, registry and store")
	}
	return &Server{
		auth:     gsi.NewAuthenticator(cred, trust),
		registry: registry,
		store:    store,
		conns:    make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}, nil
}

// SetAudit wires a decision log into the data service's enforcement
// point; every authorized operation (and every refusal) leaves a
// record. Call before Serve; nil disables auditing. On a pipeline log
// the append is asynchronous; docs/AUDIT.md's degraded-mode matrix
// recommends drop mode for this high-rate data path (a shed record is
// counted, the transfer is not stalled).
func (s *Server) SetAudit(log *audit.Log) { s.audit = log }

// Serve accepts connections until Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return fmt.Errorf("gridftp: accept: %w", err)
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the service and drains handlers.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// Bound the handshake only: a peer that connects and says nothing
	// must not hold the goroutine and the descriptor forever.
	_ = conn.SetDeadline(time.Now().Add(gsi.DefaultHandshakeTimeout))
	peer, br, err := s.auth.HandshakeAccept(conn)
	if err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{})
	for {
		req, err := readRequest(br)
		if err == jsonwire.ErrLineTooLong {
			// The rest of the line was never read, so framing is lost:
			// say why and hang up.
			_ = writeResponse(conn, &response{Code: "bad-request", Message: fmt.Sprintf("frame exceeds %d bytes", MaxFrameSize)})
			return
		}
		if err != nil {
			return
		}
		if err := writeResponse(conn, s.serve(peer, req)); err != nil {
			return
		}
	}
}

func (s *Server) serve(peer *gsi.Peer, req *request) *response {
	p := path.Clean(req.Path)
	if !path.IsAbs(p) {
		return &response{Code: "bad-request", Message: "path must be absolute"}
	}
	size := req.Size
	if req.Op == OpPut {
		size = int64(len(req.Data))
	}
	spec := rsl.NewSpec().
		Set("path", p).
		Set("dir", dirFor(req.Op, p)).
		Set("size", strconv.FormatInt(size, 10))
	creq := &core.Request{
		Subject:    peer.Identity,
		Assertions: peer.Assertions,
		Action:     req.Op,
		Spec:       spec,
	}
	d := s.registry.Invoke(CalloutGridFTP, creq)
	if s.audit != nil {
		s.audit.Append(audit.Record{
			RequestID: obs.NewRequestID(),
			Subject:   creq.Subject,
			Action:    creq.Action,
			PDP:       CalloutGridFTP,
			Effect:    d.Effect.String(),
			Source:    d.Source,
			Reason:    d.Reason,
		})
	}
	if d.Effect != core.Permit {
		code := "denied"
		if d.Effect == core.Error {
			code = "authz-failure"
		}
		return &response{Code: code, Message: d.Source + ": " + d.Reason}
	}

	switch req.Op {
	case OpGet:
		data, ok := s.store.Get(p)
		if !ok {
			return &response{Code: "not-found", Message: p}
		}
		return &response{OK: true, Data: data}
	case OpPut:
		s.store.Put(p, req.Data)
		return &response{OK: true}
	case OpDelete:
		if !s.store.Delete(p) {
			return &response{Code: "not-found", Message: p}
		}
		return &response{OK: true}
	case OpList:
		return &response{OK: true, Names: s.store.List(p)}
	default:
		return &response{Code: "bad-request", Message: "unknown op " + req.Op}
	}
}

// dirFor derives the "dir" policy attribute: the parent directory for
// file operations, the path itself for list.
func dirFor(op, p string) string {
	if op == OpList {
		return p
	}
	return path.Dir(p)
}

// Client accesses a gridftp server.
type Client struct {
	addr string
	auth *gsi.Authenticator
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
}

// NewClient builds a client authenticating with cred.
func NewClient(addr string, cred *gsi.Credential, trust *gsi.TrustStore, assertions ...*gsi.Assertion) *Client {
	opts := []gsi.AuthOption{}
	if len(assertions) > 0 {
		opts = append(opts, gsi.WithAssertions(assertions...))
	}
	return &Client{addr: addr, auth: gsi.NewAuthenticator(cred, trust, opts...)}
}

// Close tears down the connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		_ = c.conn.Close() //authlint:ignore locksafe client lifecycle lock; serializing Close against in-flight requests is the point
		c.conn = nil
		c.br = nil
	}
}

func (c *Client) roundTrip(req *request) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr) //authlint:ignore locksafe dialing under c.mu is deliberate: requests share one connection, so the first caller dials while the rest wait
		if err != nil {
			return nil, fmt.Errorf("gridftp: dial: %w", err)
		}
		_, br, err := c.auth.Handshake(conn)
		if err != nil {
			conn.Close() //authlint:ignore locksafe teardown of a connection that never worked; nothing else can be waiting on it
			return nil, fmt.Errorf("gridftp: authenticate: %w", err)
		}
		c.conn = conn
		c.br = br
	}
	if err := writeRequest(c.conn, req); err != nil {
		c.conn.Close() //authlint:ignore locksafe error-path teardown under the client lifecycle lock
		c.conn = nil
		return nil, err
	}
	resp, err := readResponse(c.br)
	if err != nil {
		c.conn.Close() //authlint:ignore locksafe error-path teardown under the client lifecycle lock
		c.conn = nil
		return nil, err
	}
	return resp, nil
}

func respError(resp *response) error {
	switch resp.Code {
	case "denied":
		return fmt.Errorf("%w: %s", ErrDenied, resp.Message)
	case "not-found":
		return fmt.Errorf("%w: %s", ErrNotFound, resp.Message)
	default:
		return fmt.Errorf("gridftp: %s: %s", resp.Code, resp.Message)
	}
}

// Get fetches a file.
func (c *Client) Get(p string) ([]byte, error) {
	resp, err := c.roundTrip(&request{Op: OpGet, Path: p})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, respError(resp)
	}
	return resp.Data, nil
}

// Put stores a file.
func (c *Client) Put(p string, data []byte) error {
	resp, err := c.roundTrip(&request{Op: OpPut, Path: p, Data: data})
	if err != nil {
		return err
	}
	if !resp.OK {
		return respError(resp)
	}
	return nil
}

// Delete removes a file.
func (c *Client) Delete(p string) error {
	resp, err := c.roundTrip(&request{Op: OpDelete, Path: p})
	if err != nil {
		return err
	}
	if !resp.OK {
		return respError(resp)
	}
	return nil
}

// List names the entries under a directory.
func (c *Client) List(dir string) ([]string, error) {
	resp, err := c.roundTrip(&request{Op: OpList, Path: dir})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, respError(resp)
	}
	return resp.Names, nil
}
