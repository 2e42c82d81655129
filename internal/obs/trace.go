package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span records one PDP evaluation inside a traced request: which
// decision point ran, what it decided, how long it took, and what the
// resilience machinery did on the way.
//
// Lifecycle: the tracing wrapper in core creates the span, publishes a
// pointer to it on the evaluation context (WithSpan), runs the inner
// PDP — during which the per-PDP protection may annotate Retries and
// Breaker through SpanFrom, on the same goroutine — and only then
// records the finished value on the Trace. A span is therefore never
// written after it becomes visible to Trace readers.
type Span struct {
	// PDP is the decision point's name.
	PDP string `json:"pdp"`
	// Effect is the decision effect as a string ("permit", "deny",
	// "error", "not-applicable").
	Effect string `json:"effect"`
	// Source labels the policy source behind the decision.
	Source string `json:"source,omitempty"`
	// Elapsed is the evaluation latency.
	Elapsed time.Duration `json:"elapsedNanos"`
	// Retries is how many extra attempts the per-PDP protection spent on
	// transient Error decisions.
	Retries int `json:"retries,omitempty"`
	// Breaker is the circuit-breaker state observed for this PDP
	// ("closed", "open", "half-open"), empty when no breaker is
	// configured.
	Breaker string `json:"breaker,omitempty"`
}

// Trace accumulates the decision path of one gatekeeper request: the
// spans of every PDP evaluated plus the summary the enforcement point
// acted on. It is safe for concurrent use.
type Trace struct {
	requestID string
	subject   string
	start     time.Time

	mu       sync.Mutex
	callout  string
	action   string
	effect   string
	source   string
	reason   string
	elapsed  time.Duration
	finished bool
	spans    []Span
}

// TraceRecord is the immutable snapshot of a Trace, as served by the
// /trace endpoint and attached to audit records.
type TraceRecord struct {
	RequestID string        `json:"requestId"`
	Subject   string        `json:"subject,omitempty"`
	Callout   string        `json:"callout,omitempty"`
	Action    string        `json:"action,omitempty"`
	Effect    string        `json:"effect,omitempty"`
	Source    string        `json:"source,omitempty"`
	Reason    string        `json:"reason,omitempty"`
	Start     time.Time     `json:"start"`
	Elapsed   time.Duration `json:"elapsedNanos"`
	Spans     []Span        `json:"spans,omitempty"`
}

// NewTrace starts a trace for one request.
func NewTrace(requestID, subject string) *Trace {
	return &Trace{requestID: requestID, subject: subject, start: time.Now()}
}

// RequestID returns the request correlation ID the trace was started
// with.
func (t *Trace) RequestID() string { return t.requestID }

// Record appends one finished span.
func (t *Trace) Record(sp Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Finish stores the summary the enforcement point acted on and stamps
// the total elapsed time. A request makes at most one callout, so
// Finish runs at most once per trace in practice; if called again the
// last call wins.
func (t *Trace) Finish(callout, action, effect, source, reason string) {
	t.mu.Lock()
	t.callout, t.action = callout, action
	t.effect, t.source, t.reason = effect, source, reason
	t.elapsed = time.Since(t.start)
	t.finished = true
	t.mu.Unlock()
}

// Finished reports whether Finish has run (i.e. an enforcement point
// acted on a decision; requests refused before any callout — a limited
// proxy asking to start a job — never finish their trace).
func (t *Trace) Finished() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Snapshot returns the trace as an immutable record.
func (t *Trace) Snapshot() TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	return TraceRecord{
		RequestID: t.requestID,
		Subject:   t.subject,
		Callout:   t.callout,
		Action:    t.action,
		Effect:    t.effect,
		Source:    t.source,
		Reason:    t.reason,
		Start:     t.start,
		Elapsed:   t.elapsed,
		Spans:     spans,
	}
}

// Request IDs: a per-process random prefix plus an atomic sequence
// number. Uniqueness within a process is guaranteed by the counter;
// the prefix keeps IDs from different gatekeeper processes (or
// restarts) from colliding in aggregated logs without paying for
// crypto/rand on every request.
var (
	ridPrefix   = makeRIDPrefix()
	ridSequence atomic.Uint64
)

func makeRIDPrefix() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy source: fall back to a time-derived prefix. IDs stay
		// unique within the process either way.
		return strconv.FormatInt(time.Now().UnixNano(), 36) + "-"
	}
	return hex.EncodeToString(b[:]) + "-"
}

// NewRequestID returns a process-unique request correlation ID,
// rendered on the stack and allocated once, as the string it returns.
func NewRequestID() string {
	var b [64]byte
	return string(strconv.AppendUint(append(b[:0], ridPrefix...), ridSequence.Add(1), 10))
}

// StartRequest is every service's per-request entry point: it mints a
// request ID onto ctx and, when store is non-nil, a trace of subject's
// request beside it. The caller publishes the trace to store once the
// request finishes (TraceStore.Publish ignores a nil store or trace).
func StartRequest(ctx context.Context, store *TraceStore, subject string) (context.Context, *Trace) {
	rid := NewRequestID()
	ctx = WithRequestID(ctx, rid)
	if store == nil {
		return ctx, nil
	}
	tr := NewTrace(rid, subject)
	return WithTrace(ctx, tr), tr
}

type ctxKey int

const (
	ctxKeyTrace ctxKey = iota
	ctxKeySpan
	ctxKeyRequestID
)

// WithTrace attaches a trace to the request context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKeyTrace, t)
}

// TraceFrom returns the context's trace, or nil. This is the tracing
// on/off switch: instrumented code does nothing beyond this lookup when
// no trace was requested.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKeyTrace).(*Trace)
	return t
}

// WithSpan attaches the span under construction to the evaluation
// context, so layers below the tracing wrapper (resilience) can
// annotate it.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKeySpan, sp)
}

// SpanFrom returns the span under construction, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKeySpan).(*Span)
	return sp
}

// WithRequestID attaches a request correlation ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestIDFrom returns the context's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}
