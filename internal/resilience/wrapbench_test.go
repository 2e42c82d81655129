package resilience

import (
	"context"
	"testing"
	"time"

	"gridauth/internal/core"
)

type benchPDP struct{}

func (benchPDP) Name() string { return "bench" }
func (benchPDP) Authorize(ctx context.Context, req *core.Request) core.Decision {
	if err := ctx.Err(); err != nil {
		return core.ErrorDecision("bench", err.Error())
	}
	return core.PermitDecision("bench", "ok")
}

func BenchmarkWrapMicro(b *testing.B) {
	var inner benchPDP
	req := &core.Request{}
	full := Options{Timeout: 250 * time.Millisecond,
		Retry:   Policy{Attempts: 3, BaseDelay: 5 * time.Millisecond},
		Breaker: &BreakerConfig{Threshold: 5, Cooldown: time.Second}}
	bench := func(p core.PDP) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Authorize(context.Background(), req)
			}
		}
	}
	b.Run("bare", bench(inner))
	b.Run("retry-only", bench(Wrap(inner, Options{Retry: full.Retry})))
	b.Run("breaker-only", bench(Wrap(inner, Options{Breaker: full.Breaker})))
	b.Run("timeout-only", bench(Wrap(inner, Options{Timeout: full.Timeout})))
	b.Run("full", bench(Wrap(inner, full)))
	b.Run("full-nonblocking", bench(Wrap(nbBenchPDP{}, full)))
}

// nbBenchPDP additionally declares it cannot hang, so the wrapper
// skips the deadline context (the production shape of in-process
// policy PDPs).
type nbBenchPDP struct{ benchPDP }

func (nbBenchPDP) NonBlocking() bool { return true }
