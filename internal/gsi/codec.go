package gsi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"gridauth/internal/jsonwire"
)

// The handshake codec: every leg, the certificates and assertions inside
// a hello, a certificate's and an assertion's signed form, and the
// session ticket are encoded by appending and decoded by one strict scan
// (internal/jsonwire). encoding/json is the definition of each format:
// the append functions emit the bytes json.Marshal would — wire bytes,
// ticket bytes and signed bytes are unchanged — and report false where
// json.Marshal would fail, and the parse functions accept only the form
// the append functions emit. Whatever they refuse (reordered or unknown
// keys, whitespace, null, non-ASCII, non-canonical base64, a time
// json.Marshal cannot write) goes to encoding/json on the same bytes,
// chosen by the shape of the value alone. FuzzHandshakeCodec,
// FuzzCertificateCodec and FuzzTicketCodec hold both halves to that.

// member opens an object member: key is the literal `"name":`, and first
// is len(b) just after the object's opening brace.
func member(b []byte, first int, key string) []byte {
	if len(b) > first {
		b = append(b, ',')
	}
	return append(b, key...)
}

// appendCertificate appends c's wire form, or with tbs set the form its
// signature covers: the same object with a null signature.
func appendCertificate(b []byte, c *Certificate, tbs bool) ([]byte, bool) {
	b = append(b, `{"serial":`...)
	b = strconv.AppendUint(b, c.Serial, 10)
	b = append(b, `,"kind":`...)
	b = jsonwire.AppendString(b, c.Kind)
	b = append(b, `,"subject":`...)
	b = jsonwire.AppendString(b, string(c.Subject))
	b = append(b, `,"issuer":`...)
	b = jsonwire.AppendString(b, string(c.Issuer))
	b = append(b, `,"publicKey":`...)
	b = jsonwire.AppendBytes(b, c.PublicKey)
	b = append(b, `,"notBefore":`...)
	b, ok := jsonwire.AppendTime(b, c.NotBefore)
	if !ok {
		return b, false
	}
	b = append(b, `,"notAfter":`...)
	if b, ok = jsonwire.AppendTime(b, c.NotAfter); !ok {
		return b, false
	}
	if len(c.Ext) > 0 {
		b = append(b, `,"ext":{`...)
		keys := make([]string, 0, len(c.Ext))
		for k := range c.Ext {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(jsonwire.AppendString(b, k), ':')
			b = jsonwire.AppendString(b, c.Ext[k])
		}
		b = append(b, '}')
	}
	b = append(b, `,"signature":`...)
	if tbs {
		b = append(b, "null"...)
	} else {
		b = jsonwire.AppendBytes(b, c.Signature)
	}
	return append(b, '}'), true
}

// appendTBS appends the deterministic "to be signed" encoding of the
// certificate: every field except the signature.
func (c *Certificate) appendTBS(b []byte) ([]byte, error) {
	if out, ok := appendCertificate(b, c, true); ok {
		return out, nil
	}
	shadow := *c
	shadow.Signature = nil
	msg, err := json.Marshal(&shadow)
	return append(b, msg...), err
}

// appendPointers appends elems as a JSON array, a nil element as null
// and every other in its wire form through one.
func appendPointers[T any](b []byte, elems []*T, one func(b []byte, e *T, tbs bool) ([]byte, bool)) ([]byte, bool) {
	b = append(b, '[')
	for i, e := range elems {
		if i > 0 {
			b = append(b, ',')
		}
		if e == nil {
			b = append(b, "null"...)
			continue
		}
		var ok bool
		if b, ok = one(b, e, false); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// appendCertificates appends a chain as a JSON array.
func appendCertificates(b []byte, chain []*Certificate) ([]byte, bool) {
	return appendPointers(b, chain, appendCertificate)
}

// appendAssertion appends a's wire form, or with tbs set the form its
// signature covers.
func appendAssertion(b []byte, a *Assertion, tbs bool) ([]byte, bool) {
	b = append(b, `{"vo":`...)
	b = jsonwire.AppendString(b, a.VO)
	b = append(b, `,"holder":`...)
	b = jsonwire.AppendString(b, string(a.Holder))
	for _, list := range [...]struct {
		key string
		ss  []string
	}{{`,"groups":`, a.Groups}, {`,"roles":`, a.Roles}, {`,"jobtags":`, a.Jobtags}} {
		if len(list.ss) > 0 {
			b = jsonwire.AppendStrings(append(b, list.key...), list.ss)
		}
	}
	b = jsonwire.AppendField(b, `,"policy":`, a.Policy)
	b = append(b, `,"issuer":`...)
	b = jsonwire.AppendString(b, string(a.Issuer))
	b = append(b, `,"notBefore":`...)
	b, ok := jsonwire.AppendTime(b, a.NotBefore)
	if !ok {
		return b, false
	}
	b = append(b, `,"notAfter":`...)
	if b, ok = jsonwire.AppendTime(b, a.NotAfter); !ok {
		return b, false
	}
	b = append(b, `,"signature":`...)
	if tbs {
		b = append(b, "null"...)
	} else {
		b = jsonwire.AppendBytes(b, a.Signature)
	}
	return append(b, '}'), true
}

// appendAssertions appends an assertion set as a JSON array.
func appendAssertions(b []byte, as []*Assertion) ([]byte, bool) {
	return appendPointers(b, as, appendAssertion)
}

// appendHandshakeMsg appends one leg. chain and assertions, when not
// nil, are the arrays appendCertificates(m.Chain) and
// appendAssertions(m.Assertions) produce, encoded ahead of time.
func appendHandshakeMsg(b []byte, m *handshakeMsg, chain, assertions []byte) ([]byte, bool) {
	b = append(b, '{')
	first, ok := len(b), true
	if len(m.Chain) > 0 {
		b = member(b, first, `"chain":`)
		if chain != nil {
			b = append(b, chain...)
		} else if b, ok = appendCertificates(b, m.Chain); !ok {
			return b, false
		}
	}
	if len(m.Nonce) > 0 {
		b = jsonwire.AppendBytes(member(b, first, `"nonce":`), m.Nonce)
	}
	if len(m.Signature) > 0 {
		b = jsonwire.AppendBytes(member(b, first, `"signature":`), m.Signature)
	}
	if len(m.Assertions) > 0 {
		b = member(b, first, `"assertions":`)
		if assertions != nil {
			b = append(b, assertions...)
		} else if b, ok = appendAssertions(b, m.Assertions); !ok {
			return b, false
		}
	}
	if len(m.Features) > 0 {
		b = jsonwire.AppendStrings(member(b, first, `"features":`), m.Features)
	}
	if len(m.ResumeTicket) > 0 {
		b = jsonwire.AppendBytes(member(b, first, `"resumeTicket":`), m.ResumeTicket)
	}
	if m.ResumeOK != nil {
		b = strconv.AppendBool(member(b, first, `"resumeOk":`), *m.ResumeOK)
	}
	if len(m.ResumeMAC) > 0 {
		b = jsonwire.AppendBytes(member(b, first, `"resumeMac":`), m.ResumeMAC)
	}
	if g := m.TicketGrant; g != nil {
		b = member(b, first, `"ticketGrant":{"ticket":`)
		b = jsonwire.AppendBytes(b, g.Ticket)
		b = append(b, `,"secret":`...)
		b = jsonwire.AppendBytes(b, g.Secret)
		b = append(b, `,"expiry":`...)
		if b, ok = jsonwire.AppendTime(b, g.Expiry); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	return append(b, '}'), true
}

// writeMsg frames and sends one leg with a single Write from a pooled
// buffer; chain and assertions as for appendHandshakeMsg.
func writeMsg(w io.Writer, m *handshakeMsg, chain, assertions []byte) error {
	bp := jsonwire.GetFrame()
	b, ok := appendHandshakeMsg((*bp)[:0], m, chain, assertions)
	if !ok {
		// encoding/json gets a copy, so that only this path moves the
		// leg to the heap.
		leg := *m
		var err error
		if b, err = json.Marshal(&leg); err != nil {
			return err
		}
	}
	b = append(b, '\n')
	_, err := w.Write(b)
	jsonwire.PutFrame(bp, b)
	return err
}

// readMsg reads one leg into m, which must be zero.
func readMsg(br *bufio.Reader, m *handshakeMsg) error {
	line, err := jsonwire.ReadLine(br, maxHandshakeMsg)
	if err == jsonwire.ErrLineTooLong {
		return fmt.Errorf("gsi: handshake message exceeds %d bytes", maxHandshakeMsg)
	}
	if err != nil {
		return err
	}
	if parseHandshakeMsg(line, m) {
		return nil
	}
	var leg handshakeMsg // not m itself: see writeMsg
	err = json.Unmarshal(line, &leg)
	*m = leg
	return err
}

// parseHandshakeMsg decodes one newline-terminated leg of the form
// appendHandshakeMsg emits into m. Everything it builds is copied out of
// line, which the caller may reuse. On false m is left partly filled.
func parseHandshakeMsg(line []byte, m *handshakeMsg) bool {
	i, ok := jsonwire.ParseObject(line, 0, func(key []byte, i int) (bit, next int, ok bool) {
		switch string(key) {
		case "chain":
			m.Chain = make([]*Certificate, 0, 4)
			next, ok = jsonwire.ParseArray(line, i, func(i int) (int, bool) {
				c, next, ok := parseCertificate(line, i)
				m.Chain = append(m.Chain, c)
				return next, ok
			})
			return 0, next, ok
		case "nonce":
			m.Nonce, next, ok = jsonwire.ParseBytes(line, i)
			return 1, next, ok
		case "signature":
			m.Signature, next, ok = jsonwire.ParseBytes(line, i)
			return 2, next, ok
		case "assertions":
			next, ok = jsonwire.ParseArray(line, i, func(i int) (int, bool) {
				a, next, ok := parseAssertion(line, i)
				m.Assertions = append(m.Assertions, a)
				return next, ok
			})
			return 3, next, ok
		case "features":
			m.Features, next, ok = jsonwire.ParseStrings(line, i)
			return 4, next, ok
		case "resumeTicket":
			m.ResumeTicket, next, ok = jsonwire.ParseBytes(line, i)
			return 5, next, ok
		case "resumeOk":
			m.ResumeOK = new(bool)
			*m.ResumeOK, next, ok = jsonwire.ParseBool(line, i)
			return 6, next, ok
		case "resumeMac":
			m.ResumeMAC, next, ok = jsonwire.ParseBytes(line, i)
			return 7, next, ok
		case "ticketGrant":
			m.TicketGrant, next, ok = parseTicketGrant(line, i)
			return 8, next, ok
		}
		return 0, 0, false
	})
	return ok && i == len(line)-1 && line[i] == '\n'
}

// parseCertificate decodes the certificate object at line[i].
func parseCertificate(line []byte, i int) (*Certificate, int, bool) {
	c := new(Certificate)
	next, ok := jsonwire.ParseObject(line, i, func(key []byte, i int) (bit, next int, ok bool) {
		var s string
		switch string(key) {
		case "serial":
			c.Serial, next, ok = jsonwire.ParseUint(line, i, math.MaxUint64)
			return 0, next, ok
		case "kind":
			c.Kind, next, ok = jsonwire.ParseString(line, i)
			return 1, next, ok
		case "subject":
			s, next, ok = jsonwire.ParseString(line, i)
			c.Subject = DN(s)
			return 2, next, ok
		case "issuer":
			s, next, ok = jsonwire.ParseString(line, i)
			c.Issuer = DN(s)
			return 3, next, ok
		case "publicKey":
			c.PublicKey, next, ok = jsonwire.ParseBytes(line, i)
			return 4, next, ok
		case "notBefore":
			c.NotBefore, next, ok = jsonwire.ParseTime(line, i)
			return 5, next, ok
		case "notAfter":
			c.NotAfter, next, ok = jsonwire.ParseTime(line, i)
			return 6, next, ok
		case "ext":
			c.Ext, next, ok = parseStringMap(line, i)
			return 7, next, ok
		case "signature":
			c.Signature, next, ok = jsonwire.ParseBytes(line, i)
			return 8, next, ok
		}
		return 0, 0, false
	})
	return c, next, ok
}

// parseStringMap decodes the non-empty object of strings at line[i],
// each key once.
func parseStringMap(line []byte, i int) (map[string]string, int, bool) {
	if i >= len(line) || line[i] != '{' {
		return nil, 0, false
	}
	m := make(map[string]string)
	for i++; ; i++ {
		k, next, ok := jsonwire.ParseString(line, i)
		if _, dup := m[k]; !ok || dup || next >= len(line) || line[next] != ':' {
			return nil, 0, false
		}
		if m[k], next, ok = jsonwire.ParseString(line, next+1); !ok || next >= len(line) {
			return nil, 0, false
		}
		switch i = next; line[i] {
		case ',':
		case '}':
			return m, i + 1, true
		default:
			return nil, 0, false
		}
	}
}

// parseAssertion decodes the assertion object at line[i].
func parseAssertion(line []byte, i int) (*Assertion, int, bool) {
	a := new(Assertion)
	next, ok := jsonwire.ParseObject(line, i, func(key []byte, i int) (bit, next int, ok bool) {
		var s string
		switch string(key) {
		case "vo":
			a.VO, next, ok = jsonwire.ParseString(line, i)
			return 0, next, ok
		case "holder":
			s, next, ok = jsonwire.ParseString(line, i)
			a.Holder = DN(s)
			return 1, next, ok
		case "groups":
			a.Groups, next, ok = jsonwire.ParseStrings(line, i)
			return 2, next, ok
		case "roles":
			a.Roles, next, ok = jsonwire.ParseStrings(line, i)
			return 3, next, ok
		case "jobtags":
			a.Jobtags, next, ok = jsonwire.ParseStrings(line, i)
			return 4, next, ok
		case "policy":
			a.Policy, next, ok = jsonwire.ParseString(line, i)
			return 5, next, ok
		case "issuer":
			s, next, ok = jsonwire.ParseString(line, i)
			a.Issuer = DN(s)
			return 6, next, ok
		case "notBefore":
			a.NotBefore, next, ok = jsonwire.ParseTime(line, i)
			return 7, next, ok
		case "notAfter":
			a.NotAfter, next, ok = jsonwire.ParseTime(line, i)
			return 8, next, ok
		case "signature":
			a.Signature, next, ok = jsonwire.ParseBytes(line, i)
			return 9, next, ok
		}
		return 0, 0, false
	})
	return a, next, ok
}

// parseTicketGrant decodes the ticket-grant object at line[i].
func parseTicketGrant(line []byte, i int) (*ticketGrant, int, bool) {
	g := new(ticketGrant)
	next, ok := jsonwire.ParseObject(line, i, func(key []byte, i int) (bit, next int, ok bool) {
		switch string(key) {
		case "ticket":
			g.Ticket, next, ok = jsonwire.ParseBytes(line, i)
			return 0, next, ok
		case "secret":
			g.Secret, next, ok = jsonwire.ParseBytes(line, i)
			return 1, next, ok
		case "expiry":
			g.Expiry, next, ok = jsonwire.ParseTime(line, i)
			return 2, next, ok
		}
		return 0, 0, false
	})
	return g, next, ok
}

// appendTicketPayload appends the sealed state of a ticket.
func appendTicketPayload(b []byte, p *ticketPayload) ([]byte, bool) {
	b = append(b, `{"identity":`...)
	b = jsonwire.AppendString(b, string(p.Identity))
	b = append(b, `,"subject":`...)
	b = jsonwire.AppendString(b, string(p.Subject))
	if p.Limited {
		b = append(b, `,"limited":true`...)
	}
	if len(p.AssertionDigest) > 0 {
		b = jsonwire.AppendBytes(append(b, `,"assertionDigest":`...), p.AssertionDigest)
	}
	b = append(b, `,"nonce":`...)
	b = jsonwire.AppendBytes(b, p.Nonce)
	b = append(b, `,"expiry":`...)
	b, ok := jsonwire.AppendTime(b, p.Expiry)
	return append(b, '}'), ok
}

// sealTicket encodes p, seals it under key and returns the ticket — the
// bytes json.Marshal gives for a sealedTicket of json.Marshal(p) — with
// the seal.
func sealTicket(p *ticketPayload, key []byte, keyID uint32) (ticket, mac []byte, err error) {
	ticket = append(make([]byte, 0, 320+len(p.Identity)+len(p.Subject)), `{"payload":`...)
	start := len(ticket)
	ticket, ok := appendTicketPayload(ticket, p)
	if !ok {
		payload, err := json.Marshal(p)
		if err != nil {
			return nil, nil, err
		}
		ticket = append(ticket[:start], payload...)
	}
	mac = ticketSealMAC(key, ticket[start:])
	ticket = append(ticket, `,"mac":`...)
	ticket = jsonwire.AppendBytes(ticket, mac)
	if keyID != 0 {
		ticket = append(ticket, `,"keyId":`...)
		ticket = strconv.AppendUint(ticket, uint64(keyID), 10)
	}
	return append(ticket, '}'), mac, nil
}

// parseSealedTicket decodes a ticket of the form sealTicket emits,
// payload included. st.Payload aliases ticket.
func parseSealedTicket(ticket []byte) (st sealedTicket, p *ticketPayload, ok bool) {
	i, ok := jsonwire.ParseObject(ticket, 0, func(key []byte, i int) (bit, next int, ok bool) {
		switch string(key) {
		case "payload":
			if p, next, ok = parseTicketPayload(ticket, i); ok {
				st.Payload = json.RawMessage(ticket[i:next])
			}
			return 0, next, ok
		case "mac":
			st.MAC, next, ok = jsonwire.ParseBytes(ticket, i)
			return 1, next, ok
		case "keyId":
			var n uint64
			n, next, ok = jsonwire.ParseUint(ticket, i, math.MaxUint32)
			st.KeyID = uint32(n)
			return 2, next, ok
		}
		return 0, 0, false
	})
	return st, p, ok && i == len(ticket) && p != nil
}

// parseTicketPayload decodes the payload object at line[i].
func parseTicketPayload(line []byte, i int) (*ticketPayload, int, bool) {
	p := new(ticketPayload)
	next, ok := jsonwire.ParseObject(line, i, func(key []byte, i int) (bit, next int, ok bool) {
		var s string
		switch string(key) {
		case "identity":
			s, next, ok = jsonwire.ParseString(line, i)
			p.Identity = DN(s)
			return 0, next, ok
		case "subject":
			s, next, ok = jsonwire.ParseString(line, i)
			p.Subject = DN(s)
			return 1, next, ok
		case "limited":
			p.Limited, next, ok = jsonwire.ParseBool(line, i)
			return 2, next, ok
		case "assertionDigest":
			p.AssertionDigest, next, ok = jsonwire.ParseBytes(line, i)
			return 3, next, ok
		case "nonce":
			p.Nonce, next, ok = jsonwire.ParseBytes(line, i)
			return 4, next, ok
		case "expiry":
			p.Expiry, next, ok = jsonwire.ParseTime(line, i)
			return 5, next, ok
		}
		return 0, 0, false
	})
	return p, next, ok
}
