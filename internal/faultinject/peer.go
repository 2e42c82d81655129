package faultinject

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridauth/internal/gsi"
)

// Hostile peers of a GSI acceptor: one that connects and says nothing,
// ones whose hello carries a public key of the wrong length, one whose
// hello stops in the middle of the frame, one that hangs up in the
// middle of its proof, one that authenticates, asks and never reads the
// answer, and one that authenticates and then streams a frame that never
// ends. Reframer is not hostile, only foreign: a relay that re-spells
// every frame a client sends the way another JSON library might.

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

	parentHello, err := helloFrame(parentChain)
	if err != nil {
		return nil, err
	}
	leafHello, err := helloFrame(leafChain)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"parent": parentHello,
		"leaf":   append(leafHello, frame(map[string]any{"signature": make([]byte, 64)})...),
	}, nil
}

// frame is one newline-terminated handshake leg.
func frame(v any) []byte {
	b, _ := json.Marshal(v) // maps of certificates, byte slices and strings
	return append(b, '\n')
}

// helloFrame is the hello a peer presenting chain opens a full handshake
// with, under a fresh nonce.
func helloFrame(chain []*gsi.Certificate) ([]byte, error) {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return frame(map[string]any{"chain": chain, "nonce": nonce}), nil
}

// TruncatedHello returns the first half of cred's honest hello: a peer
// that writes it and hangs up leaves the acceptor holding a frame that
// never gets its newline.
func TruncatedHello(cred *gsi.Credential) ([]byte, error) {
	hello, err := helloFrame(cred.Chain)
	if err != nil {
		return nil, err
	}
	return hello[:len(hello)/2], nil
}

// HangUpMidProof plays a client that presents cred's honest hello,
// waits for the acceptor's hello, and hangs up halfway through its
// proof leg. It returns once the connection is closed.
func HangUpMidProof(conn net.Conn, cred *gsi.Credential) error {
	defer conn.Close()
	hello, err := helloFrame(cred.Chain)
	if err != nil {
		return err
	}
	if _, err := conn.Write(hello); err != nil {
		return err
	}
	if _, err := bufio.NewReader(conn).ReadSlice('\n'); err != nil && err != bufio.ErrBufferFull {
		return fmt.Errorf("faultinject: reading the acceptor's hello: %w", err)
	}
	proof := frame(map[string]any{"signature": make([]byte, 64)})
	_, err = conn.Write(proof[:len(proof)/2])
	return err
}

// Flood writes prefix and then filler bytes, total in all and never a
// newline, until w refuses: an authenticated peer whose frame never
// ends. It returns how much w took.
func Flood(w io.Writer, prefix string, total int) (written int, err error) {
	written, err = io.WriteString(w, prefix)
	chunk := bytes.Repeat([]byte{'A'}, 64<<10)
	for err == nil && written < total {
		var n int
		n, err = w.Write(chunk[:min(len(chunk), total-written)])
		written += n
	}
	return written, err
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

// Reframer is a TCP relay in front of a newline-JSON service. Every
// frame a client sends — handshake legs and requests alike — reaches
// the service re-spelled: the members of every object in another order,
// whitespace around every token. The meaning of each frame is untouched
// (signed bytes travel inside base64 strings), but none is in the form
// the service's own encoder emits. The service's replies pass through
// unchanged.
type Reframer struct {
	// Addr is where clients dial.
	Addr string

	target string
	l      net.Listener
	wg     sync.WaitGroup
	frames atomic.Int64
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
}

// Frames returns how many frames the relay has re-spelled.
func (r *Reframer) Frames() int { return int(r.frames.Load()) }

// NewReframer starts a relay on a loopback port in front of target.
func NewReframer(target string) (*Reframer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &Reframer{Addr: l.Addr().String(), target: target, l: l, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

// Close stops the relay, hangs up every relayed connection and waits for
// its goroutines.
func (r *Reframer) Close() {
	_ = r.l.Close()
	r.mu.Lock()
	conns := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	r.wg.Wait()
}

func (r *Reframer) accept() {
	defer r.wg.Done()
	for {
		client, err := r.l.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", r.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		r.mu.Lock()
		r.conns[client], r.conns[server] = struct{}{}, struct{}{}
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(server, client, true)
		go r.pipe(client, server, false)
	}
}

// pipe copies src to dst, frame by re-spelled frame when reframe is set,
// and hangs both up when src ends.
func (r *Reframer) pipe(dst, src net.Conn, reframe bool) {
	defer r.wg.Done()
	defer dst.Close()
	defer src.Close()
	if !reframe {
		_, _ = io.Copy(dst, src)
		return
	}
	br := bufio.NewReaderSize(src, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		if out, err := Reframe(line); err == nil {
			line = out
			r.frames.Add(1)
		}
		if _, err := dst.Write(line); err != nil {
			return
		}
	}
}

// Reframe re-spells one newline-terminated JSON frame: object members
// in descending key order, a space on both sides of every token.
// Numbers keep their digits.
func Reframe(line []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return append(respell(nil, v), '\n'), nil
}

func respell(b []byte, v any) []byte {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, " ,"...)
			}
			b = append(respell(append(b, ' '), k), " : "...)
			b = respell(b, v[k])
		}
		return append(b, " }"...)
	case []any:
		b = append(b, '[')
		for i, e := range v {
			if i > 0 {
				b = append(b, " ,"...)
			}
			b = respell(append(b, ' '), e)
		}
		return append(b, " ]"...)
	case json.Number:
		return append(b, v...)
	}
	s, _ := json.Marshal(v) // a string, a bool or null
	return append(b, s...)
}

// OpenFDs counts the process's open file descriptors, so a test can show
// that a hostile peer left none behind.
func OpenFDs() (int, error) {
	entries, err := os.ReadDir("/proc/self/fd")
	return len(entries), err
}
