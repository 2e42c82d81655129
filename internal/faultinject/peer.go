package faultinject

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"net"
	"os"
	"sync"
	"time"

	"gridauth/internal/gsi"
)

// Hostile peers of a GSI acceptor: one that connects and says nothing,
// ones whose hello carries a public key of the wrong length, and one
// that authenticates, asks and never reads the answer.

// StalledConn is the acceptor's view of a peer that connected and went
// silent. Writes are swallowed. Read blocks until the connection is
// closed — unless the acceptor bounded it with a deadline, in which
// case it fails with os.ErrDeadlineExceeded at once instead of when the
// deadline comes, so testing a ten-second bound does not take ten
// seconds. Deadline reports the bound the acceptor set.
type StalledConn struct {
	mu       sync.Mutex
	deadline time.Time
	closed   bool
	changed  chan struct{}
}

// NewStalledConn returns a silent peer.
func NewStalledConn() *StalledConn {
	return &StalledConn{changed: make(chan struct{})}
}

// Deadline returns the read deadline in force (zero for none).
func (c *StalledConn) Deadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline
}

func (c *StalledConn) Read([]byte) (int, error) {
	for {
		c.mu.Lock()
		closed, bounded, changed := c.closed, !c.deadline.IsZero(), c.changed
		c.mu.Unlock()
		switch {
		case closed:
			return 0, net.ErrClosed
		case bounded:
			return 0, os.ErrDeadlineExceeded
		}
		<-changed
	}
}

func (c *StalledConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *StalledConn) update(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
	close(c.changed)
	c.changed = make(chan struct{})
}

func (c *StalledConn) Close() error {
	c.update(func() { c.closed = true })
	return nil
}

func (c *StalledConn) SetDeadline(t time.Time) error    { return c.SetReadDeadline(t) }
func (c *StalledConn) SetWriteDeadline(time.Time) error { return nil }
func (c *StalledConn) SetReadDeadline(t time.Time) error {
	c.update(func() { c.deadline = t })
	return nil
}

func (c *StalledConn) LocalAddr() net.Addr  { return stalledAddr{} }
func (c *StalledConn) RemoteAddr() net.Addr { return stalledAddr{} }

type stalledAddr struct{}

func (stalledAddr) Network() string { return "stalled" }
func (stalledAddr) String() string  { return "stalled" }

// ShortKeyHellos returns two handshake scripts, ready to write to an
// acceptor, that put a 3-byte Ed25519 public key where the acceptor
// will verify with it (ed25519.Verify panics on such a key):
//
//   - "parent": a proxy chain whose user certificate carries the short
//     key, so the chain's first signature check meets it;
//   - "leaf": a proxy validly delegated by user, so the chain verifies,
//     whose own key is short — met by the proof-of-possession check.
//     The script includes the proof leg.
//
// user must hold its private key.
func ShortKeyHellos(user *gsi.Credential) (map[string][]byte, error) {
	if user.Leaf() == nil || user.Key == nil {
		return nil, errors.New("faultinject: need a credential with its private key")
	}
	proxy, err := gsi.Delegate(user, time.Hour, false)
	if err != nil {
		return nil, err
	}
	short := []byte{1, 2, 3}

	parent := *proxy.Chain[1]
	parent.PublicKey = short
	parentChain := append([]*gsi.Certificate{proxy.Chain[0], &parent}, proxy.Chain[2:]...)

	// Re-sign the delegated proxy over the short key. A certificate is
	// signed over its JSON encoding with the signature left out.
	leaf := *proxy.Chain[0]
	leaf.PublicKey, leaf.Signature = short, nil
	tbs, err := json.Marshal(&leaf)
	if err != nil {
		return nil, err
	}
	if leaf.Signature, err = user.Sign(tbs); err != nil {
		return nil, err
	}
	leafChain := append([]*gsi.Certificate{&leaf}, proxy.Chain[1:]...)

	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	line := func(v any) []byte {
		b, _ := json.Marshal(v) // maps of certificates, byte slices and strings
		return append(b, '\n')
	}
	hello := func(chain []*gsi.Certificate) []byte {
		return line(map[string]any{"chain": chain, "nonce": nonce})
	}
	proof := line(map[string]any{"signature": make([]byte, 64)})
	return map[string][]byte{
		"parent": hello(parentChain),
		"leaf":   append(hello(leafChain), proof...),
	}, nil
}

// NonReader is a peer that authenticates, sends a script of frames and
// then goes quiet without hanging up: it never reads a reply. It runs
// over net.Pipe, which buffers nothing, so the first reply written to
// it blocks its writer at once — a TCP peer would have to let two
// socket buffers fill first.
type NonReader struct {
	// Conn is the acceptor's end, to be served as an accepted
	// connection.
	Conn net.Conn
	// Sent receives the outcome of the handshake and the script write
	// (nil once the acceptor has read all of the script).
	Sent <-chan error

	client net.Conn
}

// NewNonReader starts a peer that authenticates with auth as a client
// and then writes script.
func NewNonReader(auth *gsi.Authenticator, script []byte) *NonReader {
	client, server := net.Pipe()
	sent := make(chan error, 1)
	go func() {
		_, _, err := auth.HandshakeClient(client, "non-reader")
		if err == nil {
			_, err = client.Write(script)
		}
		sent <- err
	}()
	return &NonReader{Conn: server, Sent: sent, client: client}
}

// Close hangs the peer up.
func (p *NonReader) Close() { _ = p.client.Close() }
