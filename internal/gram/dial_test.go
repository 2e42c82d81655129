package gram

import (
	"net"
	"sync"
	"testing"
	"time"

	"gridauth/internal/faultinject"
)

// TestClientHandshakeIsBounded: a gatekeeper that accepts and never
// speaks fails a submit at gsi.DefaultHandshakeTimeout instead of
// holding the client, and every call queued behind its dial, forever.
func TestClientHandshakeIsBounded(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	stalled := faultinject.NewStalledConn()
	c := e.client(boDN)
	c.dial = func(string, string) (net.Conn, error) { return stalled, nil }
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(boJob, "")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("submit through a silent gatekeeper succeeded")
		}
	case <-time.After(2 * time.Second):
		stalled.Close()
		t.Fatal("client still waiting on a silent gatekeeper: no handshake deadline was set")
	}
}

// TestWatchAndStatusFailOverTogether: Watch dials under the client's
// lock, as round trips do, so a Watch and a Status that both fail over
// from a refusing first address share the failover cursor without a
// data race (run it with -race).
func TestWatchAndStatusFailOverTogether(t *testing.T) {
	e := newEnv(t, envOpts{mode: AuthzLegacy})
	contact, err := e.client(boDN).Submit(boJob, "")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusing := l.Addr().String()
	l.Close()

	c := e.client(boDN)
	c.SetFailover(refusing, e.addr)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		states, stop, err := c.Watch(contact)
		if err != nil {
			t.Errorf("watch: %v", err)
			return
		}
		defer stop()
		if s, ok := <-states; !ok || s == "" {
			t.Errorf("watch delivered no first state")
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := c.Status(contact); err != nil {
			t.Errorf("status: %v", err)
		}
	}()
	wg.Wait()
}
