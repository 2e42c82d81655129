// Fixture for the ctxprop analyzer: a function that receives a
// context.Context must thread it — no context.Background/TODO.
package ctxprop

import (
	"context"

	"core"
)

type engine struct {
	reg *core.Registry
}

// threaded passes the caller's ctx through: no finding.
func (e *engine) threaded(ctx context.Context, req *core.Request) core.Decision {
	return e.reg.InvokeContext(ctx, "job-submit", req)
}

// reanchored severs the cancellation chain with context.Background.
func (e *engine) reanchored(ctx context.Context, req *core.Request) core.Decision {
	return e.reg.InvokeContext(context.Background(), "job-submit", req) // want `reanchored receives a context\.Context but constructs context\.Background here`
}

// stubbed does the same with context.TODO.
func (e *engine) stubbed(ctx context.Context, req *core.Request) core.Decision {
	_ = ctx
	return e.reg.InvokeContext(context.TODO(), "job-submit", req) // want `stubbed receives a context\.Context but constructs context\.TODO here`
}
