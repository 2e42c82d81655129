package policy

import (
	"fmt"
	"testing"
)

// Engine micro-benchmarks complementing the repo-level P2 sweep.

func benchPolicy(b *testing.B) *Policy {
	b.Helper()
	p, err := ParseString(fig3, "VO:NFC")
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkParsePolicy(b *testing.B) {
	b.SetBytes(int64(len(fig3)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(fig3, "VO:NFC"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateGrant(b *testing.B) {
	p := benchPolicy(b)
	spec, err := parseBenchSpec(`&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)`)
	if err != nil {
		b.Fatal(err)
	}
	req := &Request{Subject: bo, Action: ActionStart, Spec: spec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Evaluate(req).Allowed {
			b.Fatal("denied")
		}
	}
}

func BenchmarkEvaluateCompiled(b *testing.B) {
	p := benchPolicy(b)
	c := Compile(p)
	spec, err := parseBenchSpec(`&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)`)
	if err != nil {
		b.Fatal(err)
	}
	req := &Request{Subject: bo, Action: ActionStart, Spec: spec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Evaluate(req).Allowed {
			b.Fatal("denied")
		}
	}
}

func BenchmarkUnparse(b *testing.B) {
	p := benchPolicy(b)
	for i := 0; i < b.N; i++ {
		_ = p.Unparse()
	}
}

// BenchmarkCompiledDeny prices a compiled denial with one violated
// requirement against subject chains of growing length. The scan visits
// every requirement set of the chain, as a permit's does; the denial
// itself adds one allocation whatever the length.
func BenchmarkCompiledDeny(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		c := Compile(denialChain(n))
		req := denialRequests(n)[0].req
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.Evaluate(req).Allowed {
					b.Fatal("permitted")
				}
			}
		})
	}
}
