package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gram"
	"gridauth/internal/gridftp"
	"gridauth/internal/gsi"
	"gridauth/internal/mds"
	"gridauth/internal/policy"
)

// executor runs ops for one client against a stack. With rec nil it is
// the timed run's executor and speaks only through the client libraries.
// With a recorder it wraps every call into a layer in a span, and where
// an op opens a GRAM connection it dials, handshakes and frames the
// request itself, so that each is a span of its own.
type executor struct {
	st  *stack
	rec *recorder

	failures  int
	firstFail error
}

// do executes one op and counts it as failed unless its outcome is the
// expected one. An expected denial is a success; a transport error never is.
func (x *executor) do(seq int, o op) {
	root := x.rec.start("op", seq, -1)
	x.rec.attr(root, "kind", o.Kind.String())
	x.rec.attr(root, "variant", o.Variant.String())
	var err error
	var denied bool
	if o.Kind == kindPut {
		err = x.put(seq, root, o)
		denied = errors.Is(err, gridftp.ErrDenied)
	} else {
		err = x.gram(seq, root, o)
		denied = gram.IsAuthorizationDenied(err)
	}
	x.rec.end(root)
	if ok := (err == nil) == o.permitted() && (err == nil || denied); !ok {
		x.failures++
		if x.firstFail == nil {
			x.firstFail = fmt.Errorf("op %d (%s %s, identity %d): permitted=%v, got error %v", seq, o.Kind, o.Variant, o.Ident, o.permitted(), err)
		}
	}
}

func (x *executor) put(seq, parent int, o op) error {
	id := x.st.ids[o.Ident]
	c, name := id.ftp, "gridftp.put_warm"
	if o.Conn != connWarm {
		c, name = gridftp.NewClient(x.st.ftpAddr, id.proxy, x.st.fab.Trust), "gridftp.put_cold"
		defer c.Close()
	} else if c == nil {
		c = gridftp.NewClient(x.st.ftpAddr, id.proxy, x.st.fab.Trust)
		id.ftp = c
	}
	s := x.rec.start(name, seq, parent)
	err := c.Put(putPath(o), payload)
	x.rec.end(s)
	return err
}

func (x *executor) gram(seq, parent int, o op) error {
	id := x.st.ids[o.Ident]
	contact := x.st.ids[o.Target].contact
	var (
		reply string
		err   error
	)
	if x.rec != nil && o.Conn != connWarm {
		reply, err = x.gramRaw(seq, parent, id, o, contact)
	} else {
		reply, err = x.gramClient(seq, parent, id, o, contact)
	}
	if err == nil {
		switch o.Kind {
		case kindSubmit:
			id.contact = reply
		case kindCancel:
			id.contact = ""
		}
	}
	return err
}

// gramClient performs a GRAM op through gram.Client, as a user's
// globusrun would.
func (x *executor) gramClient(seq, parent int, id *ident, o op, contact string) (string, error) {
	c := id.gram
	switch {
	case o.Conn == connCold:
		c = gram.NewClient(x.st.res.Addr, id.proxy, x.st.fab.Trust)
		defer c.Close()
	case c == nil:
		c = gram.NewClient(x.st.res.Addr, id.proxy, x.st.fab.Trust)
		id.gram = c
	case o.Conn == connResume:
		// The client's session cache survives Close, so the op's lazy
		// reconnect resumes by ticket.
		c.Close()
	}
	s := x.rec.start("gram."+o.Kind.String(), seq, parent)
	defer x.rec.end(s)
	switch o.Kind {
	case kindSubmit:
		return c.Submit(submitRSL(o.Variant), "")
	case kindStatus:
		_, err := c.Status(contact)
		return "", err
	default:
		return "", c.Cancel(contact)
	}
}

// gramRaw performs a connection-opening GRAM op without gram.Client:
// dial, GSI handshake and the framed request are three spans.
func (x *executor) gramRaw(seq, parent int, id *ident, o op, contact string) (string, error) {
	auth := id.auth
	if auth == nil {
		opts := []gsi.AuthOption{gsi.WithFeatures(gram.FeatureMux)}
		if o.Conn == connResume {
			opts = append(opts, gsi.WithSessionCache(gsi.NewSessionCache()))
		}
		auth = gsi.NewAuthenticator(id.proxy, x.st.fab.Trust, opts...)
		if o.Conn == connResume {
			id.auth = auth
		}
	}
	s := x.rec.start("net.dial", seq, parent)
	conn, err := net.Dial("tcp", x.st.res.Addr)
	x.rec.end(s)
	if err != nil {
		return "", err
	}
	defer conn.Close()

	s = x.rec.start("gsi.handshake", seq, parent)
	peer, br, err := auth.HandshakeClient(conn, x.st.res.Addr)
	if err != nil {
		x.rec.end(s)
		return "", err
	}
	if peer.Resumed {
		x.rec.rename(s, "gsi.handshake_resumed")
	} else {
		x.rec.rename(s, "gsi.handshake_full")
	}
	x.rec.end(s)

	m := &gram.Message{ID: 1}
	switch o.Kind {
	case kindSubmit:
		m.Type, m.RSL = gram.MsgJobRequest, submitRSL(o.Variant)
	case kindStatus:
		m.Type, m.JobContact, m.Action = gram.MsgManage, contact, gram.ManageStatus
	default:
		m.Type, m.JobContact, m.Action = gram.MsgManage, contact, gram.ManageCancel
	}
	s = x.rec.start("gram."+o.Kind.String(), seq, parent)
	defer x.rec.end(s)
	if err := gram.WriteMessage(conn, m); err != nil {
		return "", err
	}
	reply, err := gram.ReadMessage(br)
	if err != nil {
		return "", err
	}
	if reply.Err != nil {
		return "", reply.Err
	}
	return reply.Contact, nil
}

// discover runs one MDS discovery query for id: the closure has no wire
// service, so the benchmark calls it the way an index service would.
func (st *stack) discover(id *ident) error {
	req := &core.Request{Subject: id.dn, Action: policy.ActionInformation, Spec: discoverySpec()}
	recs, d := st.query(req, mds.Query{})
	if d.Effect != core.Permit || len(recs) != 1 {
		return fmt.Errorf("mds discovery for %s: %s (%s), %d records", id.dn, d.Effect, d.Reason, len(recs))
	}
	return nil
}

// tally is what one client's pass over a stream produced.
type tally struct {
	failures  int
	firstFail error
	lat       []int64 // per-op latency in ns, in stream order
}

// runStreams drives the clients' streams concurrently, one goroutine per
// client, closed loop: a client sends its next op when the previous one
// has been answered. warm selects the warm-up ops, else the timed ones; limit > 0
// caps the ops per client. rec, when set, records spans (one client only).
func runStreams(st *stack, streams []stream, warm bool, limit int, rec *recorder) []tally {
	out := make([]tally, len(streams))
	done := make(chan struct{}, len(streams))
	for c := range streams {
		ops := streams[c].Timed
		if warm {
			ops = streams[c].Warm
		}
		if limit > 0 && len(ops) > limit {
			ops = ops[:limit]
		}
		lat := make([]int64, len(ops))
		go func(c int) {
			defer func() { done <- struct{}{} }()
			x := &executor{st: st, rec: rec}
			for i, o := range ops {
				rec.block(i)
				t0 := time.Now()
				x.do(i, o)
				lat[i] = int64(time.Since(t0))
			}
			out[c] = tally{failures: x.failures, firstFail: x.firstFail, lat: lat}
		}(c)
	}
	for range streams {
		<-done
	}
	return out
}

// sumFailures folds the clients' tallies.
func sumFailures(ts []tally) (int, error) {
	n := 0
	var first error
	for _, t := range ts {
		n += t.failures
		if first == nil {
			first = t.firstFail
		}
	}
	return n, first
}
