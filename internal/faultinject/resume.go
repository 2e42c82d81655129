package faultinject

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"gridauth/internal/gsi"
)

// Peers of session resumption, played by hand from the wire format so
// they can do what an honest gsi.Authenticator never does: present a
// forged, foreign or garbage ticket, replay a recorded confirm, hang up
// between the acceptor's resume accept and the confirm. Grant and Resume
// are the honest moves they are built from.

// leg is the part of a handshake leg these peers read.
type leg struct {
	Chain       []json.RawMessage `json:"chain"`
	Nonce       []byte            `json:"nonce"`
	ResumeOK    *bool             `json:"resumeOk"`
	TicketGrant *struct {
		Ticket []byte `json:"ticket"`
		Secret []byte `json:"secret"`
	} `json:"ticketGrant"`
}

func readLeg(br *bufio.Reader, what string) (*leg, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("faultinject: reading the acceptor's %s: %w", what, err)
	}
	l := new(leg)
	if err := json.Unmarshal(line, l); err != nil {
		return nil, fmt.Errorf("faultinject: the acceptor's %s: %w", what, err)
	}
	return l, nil
}

func nonce() []byte {
	n := make([]byte, 32)
	_, _ = rand.Read(n)
	return n
}

// Grant plays an honest full handshake as cred, announcing resumption,
// and returns the ticket and session secret the acceptor grants. It does
// not check the acceptor's proof: all it wants is the ticket. The
// connection is left open, authenticated.
func Grant(conn net.Conn, cred *gsi.Credential) (ticket, secret []byte, err error) {
	br := bufio.NewReader(conn)
	if _, err := conn.Write(frame(map[string]any{"chain": cred.Chain, "nonce": nonce(), "features": []string{gsi.FeatureResume}})); err != nil {
		return nil, nil, err
	}
	hello, err := readLeg(br, "hello")
	if err != nil {
		return nil, nil, err
	}
	sig, err := cred.Sign(hello.Nonce)
	if err != nil {
		return nil, nil, err
	}
	if _, err := conn.Write(frame(map[string]any{"signature": sig})); err != nil {
		return nil, nil, err
	}
	if _, err := readLeg(br, "proof"); err != nil {
		return nil, nil, err
	}
	grant, err := readLeg(br, "ticket grant")
	if err != nil {
		return nil, nil, err
	}
	if grant.TicketGrant == nil {
		return nil, nil, errors.New("faultinject: the acceptor granted no ticket")
	}
	return grant.TicketGrant.Ticket, grant.TicketGrant.Secret, nil
}

// resumeHello is the hello that presents ticket, under a fresh nonce.
func resumeHello(ticket []byte) []byte {
	return frame(map[string]any{"nonce": nonce(), "features": []string{gsi.FeatureResume}, "resumeTicket": ticket})
}

// Resume plays an honest resumption of ticket under secret and returns
// the two frames it sent, the hello and the confirm, for a replay. The
// connection is left open, authenticated.
func Resume(conn net.Conn, ticket, secret []byte) (hello, confirm []byte, err error) {
	hello = resumeHello(ticket)
	if _, err := conn.Write(hello); err != nil {
		return nil, nil, err
	}
	accept, err := readLeg(bufio.NewReader(conn), "resume accept")
	if err != nil {
		return nil, nil, err
	}
	if accept.ResumeOK == nil || !*accept.ResumeOK {
		return nil, nil, errors.New("faultinject: the acceptor refused the ticket")
	}
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("confirm"))
	mac.Write(accept.Nonce)
	confirm = frame(map[string]any{"resumeMac": mac.Sum(nil)})
	_, err = conn.Write(confirm)
	return hello, confirm, err
}

// PresentTicket presents ticket, reads the acceptor's answer and hangs
// up. It reports whether the acceptor refused the ticket and fell back
// to a full handshake: its answer is a full hello marked resumeOk=false.
func PresentTicket(conn net.Conn, ticket []byte) (fellBack bool, err error) {
	defer conn.Close()
	if _, err := conn.Write(resumeHello(ticket)); err != nil {
		return false, err
	}
	reply, err := readLeg(bufio.NewReader(conn), "answer to a ticket")
	if err != nil {
		return false, err
	}
	return reply.ResumeOK != nil && !*reply.ResumeOK && len(reply.Chain) > 0, nil
}

// HangUpAfterResumeAccept presents ticket, reads the acceptor's resume
// accept and hangs up without confirming.
func HangUpAfterResumeAccept(conn net.Conn, ticket []byte) error {
	defer conn.Close()
	if _, err := conn.Write(resumeHello(ticket)); err != nil {
		return err
	}
	_, err := readLeg(bufio.NewReader(conn), "resume accept")
	return err
}

// ForgedTicket is a well-formed ticket naming identity that no issuer
// sealed: its MAC is random bytes.
func ForgedTicket(identity gsi.DN) []byte {
	b, _ := json.Marshal(map[string]any{
		"payload": map[string]any{"identity": identity, "subject": identity, "nonce": nonce()[:16], "expiry": time.Now().Add(time.Hour)},
		"mac":     nonce(),
	})
	return b
}

// CutAfterFrames is conn as a client sees it when its peer hangs up
// right after sending its n-th frame: that frame is delivered, and every
// read and write after it fails. A client resuming a session over it
// with n = 1 gets the acceptor's resume accept and cannot send its
// confirm; the acceptor sees the hang-up in place of the confirm.
func CutAfterFrames(conn net.Conn, n int) net.Conn {
	c := &cutConn{Conn: conn}
	c.left.Store(int64(n))
	return c
}

type cutConn struct {
	net.Conn
	left atomic.Int64 // frames still to deliver; the connection is cut at 0
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.left.Load() <= 0 {
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(p)
	for i := 0; i < n; i++ {
		if p[i] == '\n' && c.left.Add(-1) == 0 {
			_ = c.Conn.Close()
			return i + 1, nil
		}
	}
	return n, err
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.left.Load() <= 0 {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}
