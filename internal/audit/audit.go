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
// enforcement point (the GRAM dispatcher, GridFTP, MDS, the PDP
// middleware Wrap) builds its record with DecisionRecord; the
// resilience breaker records its own state transitions. docs/AUDIT.md
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
	// RequestID correlates every record of one gatekeeper request (and
	// its retained decision trace, when tracing is on). Generated once
	// per request at the gatekeeper dispatch point, once per decision by
	// GridFTP and MDS; empty for records that do not belong to a request
	// (circuit-breaker transitions).
	RequestID string `json:"requestId,omitempty"`
	Subject   gsi.DN `json:"subject"`
	Action    string `json:"action"`
	JobID     string `json:"jobId,omitempty"`
	JobOwner  gsi.DN `json:"jobOwner,omitempty"`
	PDP       string `json:"pdp"`
	Effect    string `json:"effect"`
	Source    string `json:"source,omitempty"`
	Reason    string `json:"reason,omitempty"`
	// Elapsed is the decision latency. The JSON name is the unit: the
	// field marshals as integer nanoseconds (Go's time.Duration
	// encoding), not as a formatted duration string.
	Elapsed time.Duration `json:"elapsedNanos"`
	// Spans is the per-PDP decision path of a traced request (one span
	// per PDP evaluated, or a single cache-hit span); empty when tracing
	// is disabled.
	Spans []obs.Span `json:"spans,omitempty"`
}

// DecisionRecord is the one mapping from a request and the decision a
// PEP acted on to an audit record: who asked (Subject), for what
// (Action, and the job fields of a management request), which callout
// or PDP decided (pdp), and the combined outcome (Effect, Source,
// Reason). requestID correlates the record with the request's other
// records and trace; it may be empty. The caller adds what only it
// knows — spans (GRAM), time and latency (Wrap) — before appending.
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

// SetClock overrides the time source (tests). See the clock contract
// on Log: the override stamps Record.Time and drives Wrap's Elapsed
// measurement. Safe to call concurrently with Append.
func (l *Log) SetClock(now func() time.Time) {
	l.nowFn.Store(now)
}

// clockNow reads the current record-stamping clock.
func (l *Log) clockNow() time.Time {
	return l.nowFn.Load().(func() time.Time)()
}

// CanBlock reports whether Append may wait for queue space: true for
// a log in ModeBlock, whose full-queue policy is backpressure. Wrap
// consults it so an audited PDP never claims core.NonBlockingPDP over a
// log that can stall the request.
func (l *Log) CanBlock() bool {
	return l.cfg.Mode == ModeBlock
}

// appendRing inserts into the bounded ring. Callers hold l.ringMu.
func (l *Log) appendRing(r Record) {
	idx := (l.start + l.count) % len(l.records)
	if l.count == len(l.records) {
		l.start = (l.start + 1) % len(l.records)
		l.dropped++
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

// Dropped reports how many records the ring has evicted. It flushes
// first, so evictions by records appended before the call are counted.
func (l *Log) Dropped() uint64 {
	l.Flush()
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	return l.dropped
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

// Wrap returns a PDP that forwards to inner and records every decision.
// The caller's context reaches inner, and a request correlation ID
// riding on it (obs.WithRequestID) is stamped onto the record.
// Capability declarations are forwarded so combiners and caches treat
// the wrapped PDP exactly like the bare one. Latency (Record.Elapsed) is
// measured with the log's clock, so a SetClock override governs it (see
// the clock contract on Log).
func Wrap(inner core.PDP, log *Log) core.PDP {
	return &auditedPDP{
		inner:       inner,
		name:        inner.Name(),
		effectful:   core.IsSideEffecting(inner),
		nonBlocking: core.IsNonBlocking(inner),
		log:         log,
	}
}

type auditedPDP struct {
	inner       core.PDP
	name        string
	effectful   bool
	nonBlocking bool
	log         *Log
}

var (
	_ core.EffectfulPDP   = (*auditedPDP)(nil)
	_ core.NonBlockingPDP = (*auditedPDP)(nil)
)

// Name implements core.PDP; the wrapper is invisible.
func (p *auditedPDP) Name() string { return p.name }

// SideEffecting implements core.EffectfulPDP by forwarding inner's
// declaration.
func (p *auditedPDP) SideEffecting() bool { return p.effectful }

// NonBlocking implements core.NonBlockingPDP by forwarding inner's
// declaration — unless the attached log itself can block (a log in
// ModeBlock applies backpressure on a full queue), in which case
// the wrapper truthfully reports false so deadline wrappers keep
// their watchdog.
func (p *auditedPDP) NonBlocking() bool { return p.nonBlocking && !p.log.CanBlock() }

// Authorize implements core.PDP.
//
//authlint:ignore pdpcap NonBlocking() consults Log.CanBlock and reports false for any log whose Append can wait (ModeBlock); the Cond.Wait reachable here runs only under that declared-blocking configuration
func (p *auditedPDP) Authorize(ctx context.Context, req *core.Request) core.Decision {
	start := p.log.clockNow()
	d := p.inner.Authorize(ctx, req)
	r := DecisionRecord(obs.RequestIDFrom(ctx), p.name, req, d)
	r.Time, r.Elapsed = start, p.log.clockNow().Sub(start)
	p.log.Append(r)
	return d
}
