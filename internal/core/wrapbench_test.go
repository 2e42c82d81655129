package core

import (
	"context"
	"testing"
	"time"
)

type benchPDP struct{}

func (benchPDP) Name() string { return "bench" }
func (benchPDP) Authorize(ctx context.Context, req *Request) Decision {
	if err := ctx.Err(); err != nil {
		return ErrorDecision("bench", err.Error())
	}
	return PermitDecision("bench", "ok")
}

// BenchmarkWrapMicro prices each per-PDP protection alone around a
// trivial PDP, built by protect exactly as the registry builds a
// protected chain member.
func BenchmarkWrapMicro(b *testing.B) {
	var inner benchPDP
	req := &Request{}
	full := CalloutOptions{PDPTimeout: 250 * time.Millisecond,
		Retries: 2, RetryBackoff: 5 * time.Millisecond,
		Breaker: true, BreakerThreshold: 5, BreakerCooldown: time.Second}
	bench := func(p PDP) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Authorize(context.Background(), req)
			}
		}
	}
	b.Run("bare", bench(inner))
	b.Run("retry-only", bench(protect(inner, CalloutOptions{Retries: full.Retries, RetryBackoff: full.RetryBackoff}, nil, nil)))
	b.Run("breaker-only", bench(protect(inner, CalloutOptions{Breaker: true, BreakerThreshold: full.BreakerThreshold, BreakerCooldown: full.BreakerCooldown}, nil, nil)))
	b.Run("timeout-only", bench(protect(inner, CalloutOptions{PDPTimeout: full.PDPTimeout}, nil, nil)))
	b.Run("full", bench(protect(inner, full, nil, nil)))
	b.Run("full-nonblocking", bench(protect(nbBenchPDP{}, full, nil, nil)))
}

// nbBenchPDP additionally declares it cannot hang, so the protection
// skips the deadline context (the production shape of in-process
// policy PDPs).
type nbBenchPDP struct{ benchPDP }

func (nbBenchPDP) NonBlocking() bool { return true }
