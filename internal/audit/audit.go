// Package audit records authorization decisions. The paper lists the
// loss of "security, audit, accounting" as a cost of shared-account
// workarounds (§4.3); a fine-grain authorization system restores
// auditability only if every decision leaves a trail naming who asked,
// for what, and which policy source decided.
//
// There is one log, built by NewPipeline: an asynchronous, batched,
// tamper-evident writer that group-commits records into a hash-chained,
// Merkle-batched segment log whose rotated segments are sealed with an
// Ed25519 signature, verifiable offline by cmd/auditverify. A bounded
// ring of recently committed records serves the query methods. Every
// enforcement point (GRAM, GridFTP, MDS) decides and records through
// Enforce, which builds the record with DecisionRecord; the resilience
// breaker records its own state transitions. docs/AUDIT.md
// is the operator document: on-disk format, verification runbook, and
// the degraded-mode policy matrix.
package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/gsi"
	"gridauth/internal/obs"
)

// Record is one audited authorization decision.
type Record struct {
	// Seq is the record's position in the tamper-evident sequence,
	// assigned at group commit. It is what auditverify's inclusion
	// proofs address.
	Seq  uint64    `json:"seq,omitempty"`
	Time time.Time `json:"time"`
	// RequestID correlates every record of one request with its
	// retained decision trace, when tracing is on. Each service mints it
	// once per request (obs.StartRequest); empty for records that do not
	// belong to a request (circuit-breaker transitions).
	RequestID string `json:"requestId,omitempty"`
	Subject   gsi.DN `json:"subject"`
	Action    string `json:"action"`
	JobID     string `json:"jobId,omitempty"`
	JobOwner  gsi.DN `json:"jobOwner,omitempty"`
	PDP       string `json:"pdp"`
	Effect    string `json:"effect"`
	Source    string `json:"source,omitempty"`
	Reason    string `json:"reason,omitempty"`
	// Elapsed is the decision latency. No producer measures it (the
	// trace does, per PDP); it stays in the sealed record format and is
	// emitted as 0. The JSON name is the unit: the field marshals as
	// integer nanoseconds (Go's time.Duration encoding).
	Elapsed time.Duration `json:"elapsedNanos"`
	// Spans is the per-PDP decision path of a traced request (one span
	// per PDP evaluated); empty when tracing
	// is disabled.
	Spans []obs.Span `json:"spans,omitempty"`
}

// DecisionRecord is the one mapping from a request and the decision a
// PEP acted on to an audit record: who asked (Subject), for what
// (Action, and the job fields of a management request), which callout
// or PDP decided (pdp), and the combined outcome (Effect, Source,
// Reason). requestID correlates the record with the request's other
// records and trace; it may be empty. Enforce adds the trace's spans
// before appending.
func DecisionRecord(requestID, pdp string, req *core.Request, d core.Decision) Record {
	return Record{
		RequestID: requestID,
		Subject:   req.Subject,
		Action:    req.Action,
		JobID:     req.JobID,
		JobOwner:  req.JobOwner,
		PDP:       pdp,
		Effect:    d.Effect.String(),
		Source:    d.Source,
		Reason:    d.Reason,
	}
}

// BreakerTransition records a callout chain member's circuit-breaker
// transition; it is the core.BreakerSink a gatekeeper hands its
// registry. The record names the member (PDP), the state entered
// (Effect) and left (Source) and why (Reason). A transition is a
// system event, not a request, so it carries no RequestID. On a
// pipeline log the append is asynchronous and subject to the log's
// queue-full degraded mode: transitions are rare, so even block mode
// cannot meaningfully stall the breaker.
func (l *Log) BreakerTransition(pdp, from, to, reason string) {
	l.Append(Record{Action: "circuit-breaker", PDP: pdp, Effect: to, Source: from, Reason: reason})
}

// clockNow reads the current record-stamping clock.
func (l *Log) clockNow() time.Time {
	return l.nowFn.Load().(func() time.Time)()
}

// appendRing inserts into the bounded ring. Callers hold l.ringMu.
func (l *Log) appendRing(r Record) {
	idx := (l.start + l.count) % len(l.records)
	if l.count == len(l.records) {
		l.start = (l.start + 1) % len(l.records)
	} else {
		l.count++
	}
	l.records[idx] = r
}

// Len reports the number of retained records. Like every query, it
// flushes first, so it counts every record appended before the call.
func (l *Log) Len() int {
	l.Flush()
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	return l.count
}

// Records returns the retained records, oldest first. It flushes
// first, so every record appended before the call is visible — queries
// are read-your-writes consistent even though the writer is
// asynchronous.
func (l *Log) Records() []Record {
	l.Flush()
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	out := make([]Record, 0, l.count)
	for i := 0; i < l.count; i++ {
		out = append(out, l.records[(l.start+i)%len(l.records)])
	}
	return out
}

// Filter returns retained records matching pred, oldest first.
func (l *Log) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, r := range l.Records() {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Denials returns the retained denials.
func (l *Log) Denials() []Record {
	return l.Filter(func(r Record) bool { return r.Effect == core.Deny.String() })
}

// Stats summarizes decision counts per effect.
func (l *Log) Stats() map[string]int {
	stats := make(map[string]int, 4)
	for _, r := range l.Records() {
		stats[r.Effect]++
	}
	return stats
}

// WriteJSONL streams the retained records as JSON lines.
func (l *Log) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range l.Records() {
		if err := enc.Encode(&r); err != nil {
			return fmt.Errorf("audit: encode record: %w", err)
		}
	}
	return nil
}

// ReadJSONL loads records from a JSONL stream into a new slice. It
// reads exactly what the pipeline's segment files contain, so a sealed
// segment round-trips: ReadJSONL(segment-NNNNNN.jsonl) returns the
// committed records, Seq ascending.
//
//authlint:ignore deadexport conformance_test.go reads sealed segments back with it
func ReadJSONL(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("audit: decode record: %w", err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Enforce is every service's one policy enforcement step: it asks
// reg's chain for calloutType under the caller's context, finishes the
// context's trace, if it has one, with the decision acted on (whether
// or not a log is configured), and appends the decision's record to
// log, stamped with the context's request ID and the trace's per-PDP
// spans. A nil log appends nothing. The append is asynchronous; with the queue
// full, a log in block mode (docs/AUDIT.md's recommendation for job
// startup and management) applies backpressure here, so no decision is
// acted on unrecorded.
func Enforce(ctx context.Context, reg *core.Registry, log *Log, calloutType string, req *core.Request) core.Decision {
	d := reg.InvokeContext(ctx, calloutType, req)
	var spans []obs.Span
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.Finish(calloutType, req.Action, d.Effect.String(), d.Source, d.Reason)
		spans = tr.Spans()
	}
	if log == nil {
		return d
	}
	r := DecisionRecord(obs.RequestIDFrom(ctx), calloutType, req, d)
	r.Spans = spans
	log.Append(r)
	return d
}
