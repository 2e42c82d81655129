// Fixture for the auditdeny analyzer: every function that obtains a
// decision from the callout registry must reach audit.Log.Append or
// audit.DecisionRecord on some intra-package path, so denials leave a
// record.
package auditdeny

import (
	"context"

	"audit"
	"core"
)

type gatekeeper struct {
	reg  *core.Registry
	log  *audit.Log
	emit func(audit.Record)
}

// audited dispatches and records through a helper: no finding.
func (g *gatekeeper) audited(ctx context.Context, req *core.Request) core.Decision {
	d := g.reg.InvokeContext(ctx, "job-submit", req)
	g.record(req, d)
	return d
}

// record is the shared auditing helper.
func (g *gatekeeper) record(req *core.Request, d core.Decision) {
	if d.Effect != core.Permit {
		g.log.Append(audit.Record{
			Subject: req.Subject,
			Action:  req.Action,
			Effect:  "refused",
			Reason:  d.Reason,
		})
	}
}

// auditedDeep reaches the audit call two hops down: no finding.
func (g *gatekeeper) auditedDeep(ctx context.Context, req *core.Request) core.Decision {
	d := g.reg.InvokeContext(ctx, "job-manage", req)
	g.finish(req, d)
	return d
}

func (g *gatekeeper) finish(req *core.Request, d core.Decision) {
	g.record(req, d)
}

// silent drops the decision on the floor: who asked, for what, and
// which source refused is lost.
func (g *gatekeeper) silent(ctx context.Context, req *core.Request) core.Decision {
	return g.reg.InvokeContext(ctx, "job-submit", req) // want `authorization decision obtained here never reaches an audit record on any path from silent`
}

// built hands the builder's record to a sink the call graph cannot
// follow; building it is what counts: no finding.
func (g *gatekeeper) built(ctx context.Context, req *core.Request) core.Decision {
	d := g.reg.InvokeContext(ctx, "job-submit", req)
	g.emit(audit.DecisionRecord("", "job-submit", req.Subject, req.Action))
	return d
}

// parsesOnly calls into the audit package without recording anything:
// the decision still leaves no trail.
func (g *gatekeeper) parsesOnly(ctx context.Context, req *core.Request) core.Decision {
	d := g.reg.InvokeContext(ctx, "job-submit", req) // want `never reaches an audit record on any path from parsesOnly`
	if _, err := audit.ParseDegradedMode("block"); err != nil {
		return core.DenyDecision("audit", err.Error())
	}
	return d
}

// probe is a health check whose decision is discarded by design; the
// waiver records why it may skip the audit trail.
func (g *gatekeeper) probe(ctx context.Context) core.Decision {
	req := &core.Request{Subject: "healthcheck", Action: "noop"}
	return g.reg.InvokeContext(ctx, "probe", req) //authlint:ignore auditdeny synthetic self-probe, never user traffic; auditing it would flood the log
}

// noRegistry never touches the registry: no finding.
func (g *gatekeeper) noRegistry(req *core.Request) core.Decision {
	return core.DenyDecision("static", "always deny")
}
