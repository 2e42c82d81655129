package gsi

import (
	"net"
	"testing"
	"time"
)

func BenchmarkIssue(b *testing.B) {
	ca, err := NewCA(caDN)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Issue(kateDN, KindUser); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyChain(b *testing.B) {
	ca, err := NewCA(caDN)
	if err != nil {
		b.Fatal(err)
	}
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		b.Fatal(err)
	}
	proxy, err := Delegate(kate, time.Hour, false)
	if err != nil {
		b.Fatal(err)
	}
	trust := NewTrustStore(ca.Certificate())
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trust.Verify(proxy, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandshake measures full mutual authentication over TCP.
func BenchmarkHandshake(b *testing.B) {
	ca, err := NewCA(caDN)
	if err != nil {
		b.Fatal(err)
	}
	trust := NewTrustStore(ca.Certificate())
	kate, err := ca.Issue(kateDN, KindUser)
	if err != nil {
		b.Fatal(err)
	}
	gk, err := ca.Issue(gkDN, KindService)
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _, _ = NewAuthenticator(gk, trust).HandshakeAccept(conn)
			}()
		}
	}()
	auth := NewAuthenticator(kate, trust)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := auth.HandshakeClient(conn, "gk"); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}
