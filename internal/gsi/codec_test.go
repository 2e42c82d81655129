package gsi

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The codec's oracle is encoding/json: every encoder must write what
// json.Marshal writes (or refuse where it fails), and every decoder must
// build what json.Unmarshal builds (or fail where it fails), whichever
// of the two parsers took the frame.

// checkDecodeMsg holds readMsg to json.Unmarshal on one frame, read
// through a buffer it fits and one it does not.
func checkDecodeMsg(t *testing.T, frame []byte) {
	t.Helper()
	if i := bytes.IndexByte(frame, '\n'); i >= 0 {
		frame = frame[:i] // readMsg frames by newline
	}
	line := append(append([]byte(nil), frame...), '\n')
	var want handshakeMsg
	wantErr := json.Unmarshal(line, &want)
	for _, size := range []int{16, 8192} {
		var got handshakeMsg
		err := readMsg(bufio.NewReaderSize(bytes.NewReader(line), size), &got)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("buffer %d: frame %q: readMsg error %v, json.Unmarshal error %v", size, clip(line), err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(&got, &want) {
			t.Fatalf("buffer %d: frame %q:\n readMsg        %s\n json.Unmarshal %s", size, clip(line), dump(&got), dump(&want))
		}
	}
}

// checkEncodeMsg holds appendHandshakeMsg to json.Marshal on one leg,
// with and without the chain and assertions encoded ahead of time, and
// reads the bytes back.
func checkEncodeMsg(t *testing.T, m *handshakeMsg) {
	t.Helper()
	want, wantErr := json.Marshal(m)
	got, ok := appendHandshakeMsg(nil, m, nil, nil)
	if ok != (wantErr == nil) {
		t.Fatalf("appendHandshakeMsg ok=%v, json.Marshal error %v, for %s", ok, wantErr, dump(m))
	}
	if !ok {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendHandshakeMsg wrote\n %q\njson.Marshal gives\n %q", clip(got), clip(want))
	}
	chain, okc := appendCertificates(nil, m.Chain)
	asserts, oka := appendAssertions(nil, m.Assertions)
	if !okc || !oka {
		t.Fatalf("a leg that encodes has a chain (%v) or assertions (%v) that do not", okc, oka)
	}
	if got, ok = appendHandshakeMsg(got[:0], m, chain, asserts); !ok || !bytes.Equal(got, want) {
		t.Fatalf("with the chain and assertions spliced in, appendHandshakeMsg wrote\n %q\njson.Marshal gives\n %q", clip(got), clip(want))
	}
	checkDecodeMsg(t, want)
	// What the encoder emits stays on the fast parser, unless it holds a
	// null (a nil certificate, assertion, key or signature) or a byte
	// beyond ASCII.
	plain := !bytes.Contains(want, []byte("null"))
	for _, c := range want {
		plain = plain && c < 0x80
	}
	var back handshakeMsg
	if fast := parseHandshakeMsg(append(want, '\n'), &back); plain && !fast {
		t.Fatalf("the fast parser refused an emitted frame: %q", clip(want))
	}
}

func clip(b []byte) []byte {
	if len(b) > 600 {
		return append(append([]byte(nil), b[:600]...), "..."...)
	}
	return b
}

func dump(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v (%v)", v, err)
	}
	return string(b)
}

// fuzzTime builds any time the fuzzer can name: far past and future
// years and zone offsets beyond a day included, which json.Marshal
// refuses.
func fuzzTime(sec int64, nsec uint32, zoneMin int16) time.Time {
	t := time.Unix(sec, int64(nsec%1_000_000_000))
	switch {
	case zoneMin == 0:
		return t.UTC()
	case zoneMin == 1:
		return t // local
	}
	return t.In(time.FixedZone("", int(zoneMin)*60))
}

// fuzzCertificate spreads the fuzzer's values over a certificate.
func fuzzCertificate(serial uint64, kind, subject, issuer string, pub, sig []byte, sec int64, nsec uint32, zoneMin int16, ext uint8) *Certificate {
	c := &Certificate{
		Serial: serial, Kind: kind, Subject: DN(subject), Issuer: DN(issuer),
		PublicKey: pub, Signature: sig,
		NotBefore: fuzzTime(sec, nsec, zoneMin), NotAfter: fuzzTime(sec+int64(nsec), 0, -zoneMin),
	}
	for i := uint8(0); i < ext%4; i++ {
		if c.Ext == nil {
			c.Ext = make(map[string]string)
		}
		c.Ext[kind[:min(len(kind), int(i))]+subject] = issuer
		c.Ext[issuer+string(rune('a'+i))] = kind
	}
	return c
}

func fuzzAssertion(vo, holder, issuer string, sig []byte, sec int64, nsec uint32, zoneMin int16, lists uint8) *Assertion {
	a := &Assertion{
		VO: vo, Holder: DN(holder), Issuer: DN(issuer), Signature: sig,
		NotBefore: fuzzTime(sec, nsec, zoneMin), NotAfter: fuzzTime(sec, nsec, 0),
	}
	if lists&1 != 0 {
		a.Groups = []string{vo, holder}
	}
	if lists&2 != 0 {
		a.Roles = []string{}
	}
	if lists&4 != 0 {
		a.Jobtags = []string{issuer}
	}
	if lists&8 != 0 {
		a.Policy = holder + ": &(action = start)(executable = " + vo + ")"
	}
	return a
}

// fuzzMsg builds a leg with the fields shape selects.
func fuzzMsg(shape uint16, c *Certificate, a *Assertion, p, q []byte, s string, when time.Time) *handshakeMsg {
	m := new(handshakeMsg)
	if shape&1 != 0 {
		m.Chain = []*Certificate{c}
	}
	if shape&2 != 0 {
		m.Chain = append(m.Chain, c, nil)
	}
	if shape&4 != 0 {
		m.Nonce = p
	}
	if shape&8 != 0 {
		m.Signature = q
	}
	if shape&16 != 0 {
		m.Assertions = []*Assertion{a}
	}
	if shape&32 != 0 {
		m.Assertions = append(m.Assertions, nil, a)
	}
	if shape&64 != 0 {
		m.Features = []string{FeatureResume, s}
	}
	if shape&128 != 0 {
		m.ResumeTicket = q
	}
	if shape&256 != 0 {
		ok := shape&512 != 0
		m.ResumeOK = &ok
	}
	if shape&1024 != 0 {
		m.ResumeMAC = p
	}
	if shape&2048 != 0 {
		m.TicketGrant = &ticketGrant{Ticket: p, Secret: q, Expiry: when}
	}
	return m
}

func testdataLines(t testing.TB, name string) [][]byte {
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(data), []byte("\n"))
}

// awkwardFrames are the frames the fallback exists for, each with
// whether the fast parser may take it. They are json.Unmarshal's to
// decode or refuse; the first is the leg they were derived from.
var awkwardFrames = []struct {
	fast  bool
	frame string
}{
	{true, `{"chain":[{"serial":7,"kind":"user","subject":"/O=Grid/CN=a","issuer":"/O=Grid/CN=CA","publicKey":"AQID","notBefore":"2003-06-01T00:00:00Z","notAfter":"2003-06-02T00:00:00Z","signature":"BAUG"}],"nonce":"AQID"}`},
	// Keys in another order are the emitted form as far as the scanner
	// cares.
	{true, `{"nonce":"AQID","chain":[{"signature":"BAUG","kind":"user","serial":7,"subject":"/O=Grid/CN=a","issuer":"/O=Grid/CN=CA","notAfter":"2003-06-02T00:00:00Z","publicKey":"AQID","notBefore":"2003-06-01T00:00:00Z"}]}`},
	{true, `{"chain":[{"serial":7,"kind":"user","subject":"/O=Grid/CN=\u0041\/\u003cb\u003e\u0026","issuer":"/O=Grid/CN=CA","publicKey":"AQID","notBefore":"2003-06-01T00:00:00Z","notAfter":"2003-06-02T00:00:00Z","signature":"BAUG"}]}`},
	{true, `{"chain":[{"serial":7,"notBefore":"2003-06-01T02:00:00.000000001+02:00","notAfter":"2003-06-02T00:00:00-23:59"}]}`},
	{true, `{"chain":[{}],"assertions":[{}],"ticketGrant":{}}`},
	{true, `{}`},
	{false, `{ "chain": [ {"serial": 7, "kind": "user"} ], "nonce": "AQID" }`},
	{false, `{"nonce":"AQID","nonce":"BAUG"}`},
	{false, `{"chain":[{"serial":7,"serial":8}]}`},
	{false, `{"CHAIN":[{"serial":7}],"Nonce":"AQID"}`},
	{false, `{"chain":[{"SERIAL":7,"Kind":"user"}]}`},
	{false, `{"chain":[null]}`},
	{false, `{"assertions":[null]}`},
	{false, `{"chain":null,"nonce":null,"resumeOk":null,"ticketGrant":null,"features":null}`},
	{false, `{"chain":[],"assertions":[],"features":[]}`},
	{true, `{"chain":[{"subject":"/O=Grid/CN=<b>&"}]}`}, // never emitted unescaped, read alike
	{false, `{"chain":[{"subject":"/O=Grid/CN=caf` + "\xc3\xa9" + `"}]}`},
	{false, `{"chain":[{"subject":"/O=Grid/CN=\ud83d\ude00"}]}`},
	{false, `{"chain":[{"subject":"/O=Grid/CN=\ud83d"}]}`},
	{false, `{"chain":[{"notAfter":"10000-01-01T00:00:00Z"}]}`},
	{false, `{"chain":[{"notAfter":"2003-06-02 00:00:00Z"}]}`},
	{false, `{"chain":[{"notAfter":"2003-06-02T00:00:00Z\u0020"}]}`},
	{false, `{"chain":[{"notAfter":null}]}`},
	{false, `{"nonce":"AQI"}`},              // unpadded
	{false, `{"nonce":"AQJ="}`},             // padding bits set
	{false, `{"nonce":"AQ\r\nID"}`},         // line breaks the decoder skips
	{false, `{"nonce":"AQ` + "\r" + `ID"}`}, // not JSON at all
	{false, `{"nonce":"AQ-_"}`},             // the URL alphabet
	{false, `{"nonce":"\u0041QID"}`},
	{false, `{"nonce":7}`},
	{false, `{"chain":[{"serial":-7}]}`},
	{false, `{"chain":[{"serial":07}]}`},
	{false, `{"chain":[{"serial":7.0}]}`},
	{false, `{"chain":[{"serial":18446744073709551616}]}`},
	{false, `{"chain":[{"ext":{}}]}`},
	{false, `{"chain":[{"ext":{"a":"1","a":"2"}}]}`},
	{false, `{"chain":[{"ext":{"a":1}}]}`},
	{false, `{"chain":[{"ext":null}]}`},
	{false, `{"resumeOk":"true"}`},
	{false, `{"resumeOk":True}`},
	{false, `{"ticketGrant":{"ticket":"AQID","secret":"BAUG","expiry":"2003-06-02T00:00:00Z"},"future":1}`},
	{false, `{"chain":[{"serial":7}]}}`},
	{false, `{"chain":[{"serial":7}]`},
	{false, `{"chain":[{"serial":7},]}`},
	{false, `{"chain":[{"serial":7}],}`},
	{false, `[]`},
	{false, `null`},
	{false, ``},
}

// TestHandshakeFramesPinned holds the codec to the recorded wire: every
// leg kind as a live handshake wrote it before the codec existed. The
// encoder must reproduce each recorded line byte for byte from its
// decoded value and the fast parser must take it; each hand-written
// awkward line must decode to what json.Unmarshal yields.
func TestHandshakeFramesPinned(t *testing.T) {
	recorded := 0
	for n, line := range testdataLines(t, "handshake_frames.jsonl") {
		checkDecodeMsg(t, line)
		var m handshakeMsg
		if err := json.Unmarshal(line, &m); err != nil {
			continue
		}
		again, err := json.Marshal(&m)
		if err != nil || !bytes.Equal(again, line) {
			continue // a frame some other encoder wrote
		}
		recorded++
		got, ok := appendHandshakeMsg(nil, &m, nil, nil)
		if !ok || !bytes.Equal(got, line) {
			t.Errorf("line %d: appendHandshakeMsg wrote\n %q\nrecorded\n %q", n+1, clip(got), clip(line))
		}
		var back handshakeMsg
		if !parseHandshakeMsg(append(got, '\n'), &back) && !bytes.Contains(line, []byte("null")) {
			t.Errorf("line %d: a recorded frame left the fast parser: %q", n+1, clip(line))
		}
	}
	if recorded < 10 {
		t.Errorf("%d recorded frames in the emitted form, want every leg kind (10)", recorded)
	}
}

// TestHandshakeCodecEdges runs the differential check over the cases too
// particular to leave to the fuzzer's luck, and pins which side of the
// fast parser's boundary each is on.
func TestHandshakeCodecEdges(t *testing.T) {
	for _, tc := range awkwardFrames {
		checkDecodeMsg(t, []byte(tc.frame))
		var m handshakeMsg
		if fast := parseHandshakeMsg([]byte(tc.frame+"\n"), &m); fast != tc.fast {
			t.Errorf("parseHandshakeMsg took the frame: %v, want %v: %s", fast, tc.fast, tc.frame)
		}
	}
	nasty := "q\"uo\\te <&> \x00\x1f\x7f\b\f\n\r\t \u2028\u2029 caf\u00e9 \U0001F600 \xff\xc3 \xed\xa0\x80"
	for _, sec := range []int64{0, 1054425600, 253402300799, 253402300800, -62135596800, -62167219201, -1 << 40, 1 << 40} {
		for _, zone := range []int16{0, 1, 120, -719, 1439, 1440, -1440, 3000} {
			c := fuzzCertificate(^uint64(0), nasty, nasty, "/O=Grid/CN=CA", []byte{}, nil, sec, 999_999_999, zone, 3)
			a := fuzzAssertion(nasty, "/O=Grid/CN=a", nasty, []byte{1}, sec, 1, zone, 15)
			checkEncodeCertificate(t, c)
			checkEncodeAssertion(t, a)
			checkEncodeMsg(t, fuzzMsg(0xFFFF, c, a, []byte{}, []byte{0, 255}, nasty, fuzzTime(sec, 0, zone)))
		}
	}
	checkEncodeMsg(t, &handshakeMsg{})
	// A hello that no longer fits a frame is refused by size, not read.
	big := &handshakeMsg{Nonce: bytes.Repeat([]byte{7}, maxHandshakeMsg)}
	frame, _ := appendHandshakeMsg(nil, big, nil, nil)
	var m handshakeMsg
	if err := readMsg(bufio.NewReader(bytes.NewReader(append(frame, '\n'))), &m); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversize leg: readMsg = %v, want the size refusal", err)
	}
}

// checkEncodeCertificate holds both forms of a certificate to
// json.Marshal: the wire form, and the to-be-signed form against the
// signature-less shadow copy that defined it. A one-byte drift in the
// second silently invalidates every signature.
func checkEncodeCertificate(t *testing.T, c *Certificate) {
	t.Helper()
	want, wantErr := json.Marshal(c)
	got, ok := appendCertificate(nil, c, false)
	if ok != (wantErr == nil) || (ok && !bytes.Equal(got, want)) {
		t.Fatalf("appendCertificate = %q, %v\njson.Marshal     = %q, %v", clip(got), ok, clip(want), wantErr)
	}
	shadow := *c
	shadow.Signature = nil
	want, wantErr = json.Marshal(&shadow)
	got, err := c.tbs()
	if (err != nil) != (wantErr != nil) || (err == nil && !bytes.Equal(got, want)) {
		t.Fatalf("tbs = %q, %v\njson.Marshal of the shadow = %q, %v", clip(got), err, clip(want), wantErr)
	}
	if got, err = c.appendTBS([]byte("prefix")); err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("appendTBS onto a prefix = %q", clip(got))
	}
}

func checkEncodeAssertion(t *testing.T, a *Assertion) {
	t.Helper()
	want, wantErr := json.Marshal(a)
	got, ok := appendAssertion(nil, a, false)
	if ok != (wantErr == nil) || (ok && !bytes.Equal(got, want)) {
		t.Fatalf("appendAssertion = %q, %v\njson.Marshal    = %q, %v", clip(got), ok, clip(want), wantErr)
	}
	shadow := *a
	shadow.Signature = nil
	want, wantErr = json.Marshal(&shadow)
	got, err := a.tbs()
	if (err != nil) != (wantErr != nil) || (err == nil && !bytes.Equal(got, want)) {
		t.Fatalf("tbs = %q, %v\njson.Marshal of the shadow = %q, %v", clip(got), err, clip(want), wantErr)
	}
}

// FuzzHandshakeCodec is the differential test of the leg codec:
// arbitrary bytes through the decoder, arbitrary legs through the
// encoder and back.
func FuzzHandshakeCodec(f *testing.F) {
	for _, line := range testdataLines(f, "handshake_frames.jsonl") {
		f.Add(line, uint16(0x0fff), "/O=Grid/CN=Kate", []byte("nonce"), []byte("sig"), int64(1054425600), uint32(0), int16(0))
	}
	for i, tc := range awkwardFrames {
		f.Add([]byte(tc.frame), uint16(1<<(i%12)), "<&>\u2028\xff", []byte{}, []byte(nil), int64(253402300800), uint32(i), int16(i*97))
	}
	f.Fuzz(func(t *testing.T, frame []byte, shape uint16, s string, p, q []byte, sec int64, nsec uint32, zoneMin int16) {
		checkDecodeMsg(t, frame)
		c := fuzzCertificate(uint64(sec), "user", s, "/O=Grid/CN=CA", p, q, sec, nsec, zoneMin, uint8(shape>>12))
		a := fuzzAssertion("NFC", s, "/O=Grid/CN=VO", q, sec, nsec, zoneMin, uint8(shape>>12))
		checkEncodeMsg(t, fuzzMsg(shape, c, a, p, q, s, fuzzTime(sec, nsec, zoneMin)))
	})
}

// FuzzCertificateCodec drives every certificate and assertion the
// fuzzer can build through both encoders, wire and to-be-signed, and a
// chain of arbitrary bytes through the decoder.
func FuzzCertificateCodec(f *testing.F) {
	f.Add([]byte(`{"serial":7,"kind":"user"}`), uint64(7), "user", "/O=Grid/CN=a", "/O=Grid/CN=CA", []byte{1, 2, 3}, []byte{4, 5, 6}, int64(1054425600), uint32(1), int16(0), uint8(0))
	f.Add([]byte(`{"ext":{"b":"1","a":"2"},"notAfter":"10000-01-01T00:00:00Z"}`), ^uint64(0), "<&>", "\xff\u2028", "\x00", []byte{}, []byte(nil), int64(253402300800), uint32(999_999_999), int16(1440), uint8(3))
	f.Add([]byte(`null`), uint64(0), "", "", "", []byte(nil), []byte{}, int64(-62167219201), uint32(0), int16(-1), uint8(15))
	f.Fuzz(func(t *testing.T, cert []byte, serial uint64, kind, subject, issuer string, pub, sig []byte, sec int64, nsec uint32, zoneMin int16, extra uint8) {
		checkDecodeMsg(t, append(append([]byte(`{"chain":[`), cert...), `]}`...))
		checkDecodeMsg(t, append(append([]byte(`{"assertions":[`), cert...), `]}`...))
		checkEncodeCertificate(t, fuzzCertificate(serial, kind, subject, issuer, pub, sig, sec, nsec, zoneMin, extra))
		checkEncodeAssertion(t, fuzzAssertion(kind, subject, issuer, sig, sec, nsec, zoneMin, extra))
	})
}

// refRedeem is TicketIssuer.redeem as it was before the codec: two
// json.Unmarshal calls around the seal check.
func refRedeem(ti *TicketIssuer, ticket []byte, at time.Time) (*ticketPayload, []byte, bool, error) {
	var st sealedTicket
	if err := json.Unmarshal(ticket, &st); err != nil {
		return nil, nil, false, fmt.Errorf("%w: %v", ErrTicketInvalid, err)
	}
	key, oldKey, ok := ti.ring.keyFor(st.KeyID, at)
	if !ok {
		return nil, nil, false, fmt.Errorf("%w: unknown or retired secret version %d", ErrTicketInvalid, st.KeyID)
	}
	if !hmac.Equal(st.MAC, ticketSealMAC(key, st.Payload)) {
		return nil, nil, false, fmt.Errorf("%w: bad seal", ErrTicketInvalid)
	}
	p := new(ticketPayload)
	if err := json.Unmarshal(st.Payload, p); err != nil {
		return nil, nil, false, fmt.Errorf("%w: %v", ErrTicketInvalid, err)
	}
	if at.After(p.Expiry) {
		return nil, nil, false, fmt.Errorf("%w: expired %s ago", ErrTicketInvalid, at.Sub(p.Expiry))
	}
	return p, ticketSecret(key, st.MAC), oldKey, nil
}

// checkRedeem holds redeem to refRedeem on one ticket: same payload,
// same secret, same error.
func checkRedeem(t *testing.T, ti *TicketIssuer, ticket []byte, at time.Time) {
	t.Helper()
	p, secret, oldKey, err := ti.redeem(ticket, at)
	wp, wsecret, woldKey, werr := refRedeem(ti, ticket, at)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("ticket %q: redeem error %v, reference %v", clip(ticket), err, werr)
	}
	if !reflect.DeepEqual(p, wp) || !bytes.Equal(secret, wsecret) || oldKey != woldKey {
		t.Fatalf("ticket %q: redeem = %s, %x, %v; reference %s, %x, %v", clip(ticket), dump(p), secret, oldKey, dump(wp), wsecret, woldKey)
	}
}

// checkSeal holds sealTicket to the two json.Marshal calls that defined
// the ticket, then redeems what it sealed.
func checkSeal(t *testing.T, ti *TicketIssuer, p *ticketPayload, keyID uint32, at time.Time) {
	t.Helper()
	ver, _ := ti.ring.Current()
	ticket, mac, err := sealTicket(p, ver.Key, keyID)
	payload, wantErr := json.Marshal(p)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("sealTicket error %v, json.Marshal error %v, for %s", err, wantErr, dump(p))
	}
	if err != nil {
		return
	}
	want, err := json.Marshal(&sealedTicket{Payload: payload, MAC: ticketSealMAC(ver.Key, payload), KeyID: keyID})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ticket, want) || !bytes.Equal(mac, ticketSealMAC(ver.Key, payload)) {
		t.Fatalf("sealTicket wrote\n %q\njson.Marshal gives\n %q", ticket, want)
	}
	checkRedeem(t, ti, ticket, at)
}

// FuzzTicketCodec is the differential test of the ticket codec: any
// payload through sealTicket, any bytes through redeem, both against the
// encoding/json code they replaced.
func FuzzTicketCodec(f *testing.F) {
	ti, err := NewTicketIssuer(0)
	if err != nil {
		f.Fatal(err)
	}
	ver, _ := ti.ring.Current()
	good, _, err := sealTicket(&ticketPayload{Identity: kateDN, Subject: kateDN.WithCN("proxy"), Nonce: []byte("0123456789abcdef"), Expiry: time.Unix(1054425600, 0).UTC()}, ver.Key, ver.ID)
	if err != nil {
		f.Fatal(err)
	}
	for _, ticket := range [][]byte{
		good,
		bytes.Replace(good, []byte(`{"payload"`), []byte(`{ "payload"`), 1),
		bytes.Replace(good, []byte(`"identity"`), []byte(`"Identity"`), 1),
		bytes.Replace(good, []byte(`"nonce"`), []byte(`"limited":false,"nonce"`), 1),
		bytes.Replace(good, []byte(`,"mac"`), []byte(`,"keyId":0,"mac"`), 1),
		[]byte(`{"payload":null,"mac":null}`), []byte(`{"mac":"AQID","keyId":4294967296}`), []byte(`{}`), nil,
	} {
		f.Add(ticket, "/O=Grid/CN=a", "<&>", true, []byte("digest"), []byte("nonce"), int64(1054425600), uint32(7), int16(0), ver.ID)
	}
	f.Fuzz(func(t *testing.T, ticket []byte, identity, subject string, limited bool, digest, nonce []byte, sec int64, nsec uint32, zoneMin int16, keyID uint32) {
		at := time.Unix(1054425600, 0)
		checkRedeem(t, ti, ticket, at)
		// Re-seal the fuzzer's payload bytes under the real key, so the
		// payload parser is reached behind the seal check too.
		if i := bytes.Index(ticket, []byte(`,"mac":`)); bytes.HasPrefix(ticket, []byte(`{"payload":`)) && i > 0 {
			payload := ticket[len(`{"payload":`):i]
			if json.Valid(payload) {
				if resealed, err := json.Marshal(&sealedTicket{Payload: payload, MAC: ticketSealMAC(ver.Key, payload), KeyID: ver.ID}); err == nil {
					checkRedeem(t, ti, resealed, at)
				}
			}
		}
		p := &ticketPayload{Identity: DN(identity), Subject: DN(subject), Limited: limited, AssertionDigest: digest, Nonce: nonce, Expiry: fuzzTime(sec, nsec, zoneMin)}
		checkSeal(t, ti, p, keyID, at)
		checkSeal(t, ti, p, ver.ID, at)
	})
}

// legs are the frames of one GRAM connection-opening handshake.
type codecLegs struct {
	name   string
	m      *handshakeMsg
	allocs float64 // what decoding may allocate: the decoded value's own parts
}

func benchLegs(tb testing.TB) (*Authenticator, []codecLegs) {
	f := newMemoFixture(tb)
	a := NewAuthenticator(f.proxy, NewTrustStore(f.ca.Certificate()))
	nonce, sig := bytes.Repeat([]byte{9}, nonceLen), bytes.Repeat([]byte{8}, 64)
	hello := a.hello(nonce, []string{FeatureResume, "gram-mux/2"})
	return a, []codecLegs{
		// chain slice; per certificate: struct, kind, subject, issuer, key,
		// signature; nonce; features slice and its two strings.
		{"hello", &hello, 1 + 3*6 + 1 + 3},
		{"proof", &handshakeMsg{Signature: sig}, 1},
		// grant struct, ticket, secret.
		{"ticket-grant", &handshakeMsg{TicketGrant: &ticketGrant{Ticket: bytes.Repeat([]byte{7}, 300), Secret: sig[:32], Expiry: f.now}}, 3},
	}
}

// TestHandshakeCodecAllocations is the allocation gate: encoding a leg
// into a warm buffer allocates nothing, and decoding allocates the
// decoded value's certificates, strings and byte slices and nothing
// else.
func TestHandshakeCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	a, legs := benchLegs(t)
	for _, leg := range legs {
		if n := testing.AllocsPerRun(200, func() {
			if err := a.send(io.Discard, leg.m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: sending allocates %v times, want 0", leg.name, n)
		}
		var frame, spliced bytes.Buffer
		if err := a.send(&frame, leg.m); err != nil {
			t.Fatal(err)
		}
		// An acceptor's hello carries the chain it encoded once: the same
		// bytes, still without allocating.
		if err := a.sendAcceptorHello(&spliced, leg.m); err != nil || !bytes.Equal(spliced.Bytes(), frame.Bytes()) {
			t.Errorf("%s: sendAcceptorHello wrote %q (%v), send %q", leg.name, clip(spliced.Bytes()), err, clip(frame.Bytes()))
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := a.sendAcceptorHello(io.Discard, leg.m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: sending with the chain spliced in allocates %v times, want 0", leg.name, n)
		}
		rd := bytes.NewReader(nil)
		br := bufio.NewReader(rd)
		var m handshakeMsg
		if n := testing.AllocsPerRun(200, func() {
			rd.Reset(frame.Bytes())
			br.Reset(rd)
			m = handshakeMsg{}
			if err := readMsg(br, &m); err != nil {
				t.Fatal(err)
			}
		}); n != leg.allocs {
			t.Errorf("%s: reading allocates %v times, want %v", leg.name, n, leg.allocs)
		}
	}
	cert := a.cred.Chain[0]
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := cert.appendTBS(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("appendTBS allocates %v times into a buffer with room, want 0", n)
	}
}

// BenchmarkHandshakeCodec prices each leg of a full handshake both ways,
// and the to-be-signed form chain verification encodes per certificate.
func BenchmarkHandshakeCodec(b *testing.B) {
	a, legs := benchLegs(b)
	for _, leg := range legs {
		var frame bytes.Buffer
		if err := a.send(&frame, leg.m); err != nil {
			b.Fatal(err)
		}
		b.Run("write/"+leg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(frame.Len()))
			for i := 0; i < b.N; i++ {
				if err := a.send(io.Discard, leg.m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("read/"+leg.name, func(b *testing.B) {
			rd := bytes.NewReader(nil)
			br := bufio.NewReader(rd)
			b.ReportAllocs()
			b.SetBytes(int64(frame.Len()))
			for i := 0; i < b.N; i++ {
				rd.Reset(frame.Bytes())
				br.Reset(rd)
				var m handshakeMsg
				if err := readMsg(br, &m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("tbs", func(b *testing.B) {
		cert := a.cred.Chain[0]
		buf := make([]byte, 0, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cert.appendTBS(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
