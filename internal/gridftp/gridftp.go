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
	"context"
	"errors"
	"fmt"
	"net"
	"path"
	"sort"
	"strconv"
	"sync"

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
	srv      *gsi.Server
	registry *core.Registry
	store    *Store
	audit    *audit.Log
}

// NewServer builds a data service around a store, authorizing through
// the registry's CalloutGridFTP chain. It grants session-resumption
// tickets sealed under a private secret with the default lifetime, as
// the gatekeeper does by default, so a client's reconnect costs one
// round trip and no signature. Its handshakes are not counted in the
// gsi_handshakes_* metrics, which count the gatekeeper's alone.
func NewServer(cred *gsi.Credential, trust *gsi.TrustStore, registry *core.Registry, store *Store) (*Server, error) {
	if cred == nil || trust == nil || registry == nil || store == nil {
		return nil, errors.New("gridftp: server needs credential, trust store, registry and store")
	}
	issuer, err := gsi.NewTicketIssuer(0)
	if err != nil {
		return nil, fmt.Errorf("gridftp: %w", err)
	}
	return &Server{
		auth:     gsi.NewAuthenticator(cred, trust, gsi.WithTicketIssuer(issuer)),
		srv:      gsi.NewServer(),
		registry: registry,
		store:    store,
	}, nil
}

// SetAudit wires a decision log into the data service's enforcement
// point; every authorized operation (and every refusal) leaves a
// record. Call before Serve; nil disables auditing. On a pipeline log
// the append is asynchronous; docs/AUDIT.md's degraded-mode matrix
// recommends drop mode for this high-rate data path (a shed record is
// counted, the transfer is not stalled).
func (s *Server) SetAudit(log *audit.Log) { s.audit = log }

// Serve accepts connections until Close. A Serve that starts after
// Close closes l and returns at once.
func (s *Server) Serve(l net.Listener) error {
	return s.srv.Serve(l, s.handle)
}

// Close stops the service and drains handlers. It abandons any
// callout still in flight first, so a PDP stuck on a remote backend
// cannot hold shutdown.
func (s *Server) Close() {
	s.srv.Close()
}

// handle serves one connection; its callouts run under ctx, which
// Close cancels.
func (s *Server) handle(ctx context.Context, conn net.Conn) {
	peer, br, err := s.auth.HandshakeAccept(conn)
	if err != nil {
		return
	}
	defer jsonwire.PutReader(br)
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
		if err := writeResponse(conn, s.serve(ctx, peer, req)); err != nil {
			return
		}
	}
}

// serve answers one request. Like GRAM's dispatch, it is one request
// to the enforcement point: it gets its own request ID, and a trace when
// the registry has a trace store, so its audit record resolves in
// /trace. An op the service cannot serve is refused before the callout,
// so the policy chain and the audit trail only ever see the four ops.
func (s *Server) serve(ctx context.Context, peer *gsi.Peer, req *request) *response {
	traces := s.registry.Traces()
	ctx, tr := obs.StartRequest(ctx, traces, string(peer.Identity))
	defer traces.Publish(tr)
	p := path.Clean(req.Path)
	if !path.IsAbs(p) {
		return &response{Code: "bad-request", Message: "path must be absolute"}
	}
	switch req.Op {
	case OpGet, OpPut, OpDelete, OpList:
	default:
		return &response{Code: "bad-request", Message: "unknown op " + req.Op}
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
	d := audit.Enforce(ctx, s.registry, s.audit, CalloutGridFTP, creq)
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
	default: // OpList
		return &response{OK: true, Names: s.store.List(p)}
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

// sessions is the GSI session cache every Client in the process shares,
// the way every http.Client shares http.DefaultTransport: a transfer is
// often a client of its own, so a cache per Client would never be asked
// twice. Sessions are keyed by server address and credential object, so
// each credential finds only its own, and the cache is bounded
// (gsi.SessionCache).
var sessions = gsi.NewSessionCache()

// Client accesses a gridftp server. Its connection is authenticated by
// resuming the process's session with the server for its credential
// when there is one, by a full handshake otherwise.
type Client struct {
	addr string
	auth *gsi.Authenticator
	dial func(network, addr string) (net.Conn, error) // net.Dial, or a test's wrapper
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
}

// NewClient builds a client authenticating with cred.
func NewClient(addr string, cred *gsi.Credential, trust *gsi.TrustStore, assertions ...*gsi.Assertion) *Client {
	opts := []gsi.AuthOption{gsi.WithSessionCache(sessions)}
	if len(assertions) > 0 {
		opts = append(opts, gsi.WithAssertions(assertions...))
	}
	return &Client{addr: addr, auth: gsi.NewAuthenticator(cred, trust, opts...), dial: net.Dial}
}

// Close tears down the connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.dropLocked() //authlint:ignore locksafe client lifecycle lock; serializing Close against in-flight requests is the point
	}
}

// dropLocked closes the connection and returns its reader to the pool:
// every read is made under c.mu, so none is in flight. Caller holds c.mu
// and c.conn is set.
func (c *Client) dropLocked() {
	_ = c.conn.Close()
	jsonwire.PutReader(c.br)
	c.conn, c.br = nil, nil
}

func (c *Client) roundTrip(req *request) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if err := c.connect(); err != nil { //authlint:ignore locksafe dialing under c.mu is deliberate: requests share one connection, so the first caller dials while the rest wait
			return nil, err
		}
	}
	if err := writeRequest(c.conn, req); err != nil {
		c.dropLocked() //authlint:ignore locksafe error-path teardown under the client lifecycle lock
		return nil, err
	}
	resp, err := readResponse(c.br)
	if err != nil {
		c.dropLocked() //authlint:ignore locksafe error-path teardown under the client lifecycle lock
		return nil, err
	}
	return resp, nil
}

// connect dials the server and authenticates. A resumption that dies on
// the wire (gsi.ErrResumeFailed: the server went away, or hung up
// mid-resumption) has already dropped the session, so one redial runs a
// full handshake, as gram.Client's does. Caller holds c.mu.
func (c *Client) connect() error {
	for redial := false; ; redial = true {
		conn, err := c.dial("tcp", c.addr)
		if err != nil {
			return fmt.Errorf("gridftp: dial: %w", err)
		}
		// The handshake is bounded, so a server that accepts and never
		// speaks cannot hold c.mu, and every request queued behind it.
		_, br, err := c.auth.HandshakeClient(conn, c.addr)
		if err == nil {
			c.conn, c.br = conn, br
			return nil
		}
		conn.Close()
		if redial || !errors.Is(err, gsi.ErrResumeFailed) {
			return fmt.Errorf("gridftp: authenticate: %w", err)
		}
	}
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
