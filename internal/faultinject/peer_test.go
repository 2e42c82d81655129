package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"gridauth/internal/gsi"
	"gridauth/internal/obs"
)

func TestStalledConnBlocksUntilBoundedOrClosed(t *testing.T) {
	c := NewStalledConn()
	got := make(chan error, 1)
	read := func() {
		_, err := c.Read(make([]byte, 1))
		got <- err
	}
	go read()
	select {
	case err := <-got:
		t.Fatalf("unbounded read returned %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	bound := time.Now().Add(time.Hour)
	if err := c.SetDeadline(bound); err != nil {
		t.Fatal(err)
	}
	if err := <-got; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("bounded read = %v, want deadline exceeded without the wait", err)
	}
	if !c.Deadline().Equal(bound) {
		t.Errorf("Deadline = %v, want %v", c.Deadline(), bound)
	}
	if err := c.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go read()
	c.Close()
	if err := <-got; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on a closed connection = %v", err)
	}
}

// Each short-key hello reaches the check it was built for and is
// refused there as an ordinary failed handshake.
func TestShortKeyHellosFailTheHandshake(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=Chaos CA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	serverCred, err := ca.Issue("/O=Grid/CN=server", gsi.KindService)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.Issue("/O=Grid/CN=client", gsi.KindUser)
	if err != nil {
		t.Fatal(err)
	}
	hellos, err := ShortKeyHellos(user)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantChecks := range map[string]uint64{"parent": 1, "leaf": 3} {
		m := obs.NewMetrics()
		acceptor := gsi.NewAuthenticator(serverCred, trust, gsi.WithMetrics(m))
		cs, ss := net.Pipe()
		script := hellos[name]
		go func() { _, _ = cs.Write(script) }()        // the acceptor may hang up mid-script
		go func() { _, _ = io.Copy(io.Discard, cs) }() // its hello and proof
		_, _, err := acceptor.HandshakeAccept(ss)
		ss.Close()
		cs.Close()
		if !errors.Is(err, gsi.ErrHandshakeFailed) {
			t.Errorf("%s: handshake = %v, want ErrHandshakeFailed", name, err)
		}
		if got := m.HandshakesFailed.Load(); got != 1 {
			t.Errorf("%s: gsi_handshakes_failed_total = %d, want 1", name, got)
		}
		if got := m.CertSigChecks.Load(); got != wantChecks {
			t.Errorf("%s: gsi_cert_sig_checks_total = %d, want %d", name, got, wantChecks)
		}
	}
}

// A re-spelled frame is one line that means what the original meant and
// is not spelled the way encoding/json spells it.
func TestReframeKeepsMeaning(t *testing.T) {
	line := []byte(`{"chain":[{"serial":18446744073709551615,"subject":"/O=Grid/CN=a <b>"},null],"nonce":"AQID","resumeOk":false}` + "\n")
	out, err := Reframe(line)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(out, []byte("\n")) != 1 || out[len(out)-1] != '\n' {
		t.Fatalf("re-spelled frame is not one line: %q", out)
	}
	if bytes.Index(out, []byte(`"nonce"`)) > bytes.Index(out, []byte(`"chain"`)) || !bytes.Contains(out, []byte(" : ")) {
		t.Errorf("keys not reordered or no whitespace: %q", out)
	}
	if !bytes.Contains(out, []byte("18446744073709551615")) {
		t.Errorf("a 64-bit serial lost digits: %q", out)
	}
	var a, b any
	if err := json.Unmarshal(line, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &b); err != nil {
		t.Fatalf("re-spelled frame does not parse: %v: %q", err, out)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("meaning changed:\n %v\n %v", a, b)
	}
}
