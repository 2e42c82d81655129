// Package obs is the observability layer: per-request decision traces
// (one span per PDP evaluated) and process-wide metrics (lock-cheap
// atomic counters, gauges and latency histograms). It is a pure-stdlib
// leaf package — it imports nothing else from this module — so every
// layer (core, resilience, gsi, gram, audit) can depend on it without
// cycles. Effects and breaker states cross into obs as plain strings
// for the same reason.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; all methods are safe for concurrent use and
// allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down). The
// zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// latencyBuckets are the histogram upper bounds, in seconds. They span
// the latencies this system actually exhibits: sub-microsecond
// in-process policy evaluation up through multi-second remote-callout
// timeouts.
const numLatencyBuckets = 18

var latencyBuckets = [numLatencyBuckets]float64{
	.000001, .00001, .0001, .00025, .0005, .001, .0025, .005,
	.01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observe is atomic per
// field (bucket count, sum, count), which is the usual metrics
// trade-off: a concurrent reader may see a bucket increment before the
// matching sum update, but totals are never lost. The zero value is
// ready to use and Observe is allocation-free.
type Histogram struct {
	buckets [numLatencyBuckets]atomic.Uint64 // cumulative-at-read, per-bucket at write
	sumNs   atomic.Int64
	count   atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	// Linear scan: the bucket list is short and the loop body is
	// branch-predictable; a binary search buys nothing at this size.
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	// Durations above the last bound land only in sum/count (the +Inf
	// bucket is synthesized at read time from count).
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Metrics is the process-wide metric set. All fields are safe for
// concurrent use; the update fast path (Counter.Inc, Gauge.Inc/Dec,
// Histogram.Observe) performs no allocation and takes no lock.
//
// The field set is mirrored by the descriptor table in descriptors();
// docs/OBSERVABILITY.md documents every metric and cmd/authlint fails
// if the two drift apart.
type Metrics struct {
	// Authorization decisions by final combined effect, counted at the
	// registry dispatch point (Registry.InvokeContext), i.e. once per
	// callout regardless of chain length.
	DecisionsPermit        Counter
	DecisionsDeny          Counter
	DecisionsError         Counter
	DecisionsNotApplicable Counter
	// DecisionSeconds is the end-to-end callout latency.
	DecisionSeconds Histogram

	// The callout registry's per-PDP protection.
	AuthzRetries    Counter // extra attempts after a transient Error decision
	BreakerOpened   Counter // closed/half-open → open transitions
	BreakerHalfOpen Counter // open → half-open transitions
	BreakerClosed   Counter // half-open → closed transitions
	BreakerShed     Counter // calls refused outright by an open breaker

	// GSI handshakes (internal/gsi, authenticators built WithMetrics).
	HandshakesFull    Counter
	HandshakesResumed Counter
	HandshakesFailed  Counter

	// Certificate signatures examined by chain verification in those
	// handshakes, and how many the trust store's signature memo
	// answered without Ed25519 arithmetic (gsi.TrustStore.SigStats).
	CertSigChecks   Counter
	CertSigMemoHits Counter

	// GSI resumption-ticket secret ring (gsi.SecretRing): rotation
	// outcomes at redemption time.
	TicketsOldSecret Counter // tickets redeemed under a superseded secret inside its overlap window
	TicketsRejected  Counter // resumption tickets refused at redemption (bad seal, expiry, unknown or retired secret version)

	// Policy static analysis (internal/policy/analyze): findings counted
	// each time an analyzed policy snapshot is installed in the store.
	PolicyFindings Counter // analyzer findings observed at policy install time

	// Cluster replication (internal/cluster): policy-epoch propagation
	// between gatekeeper nodes and the staleness guard.
	ClusterAuthFailures       Counter // replication-channel peers refused by the GSI handshake or subscriber policy
	ClusterDivergedSources    Gauge   // policy sources pinned on their last good policy after a snapshot parse failure
	ClusterEpoch              Gauge   // last replication epoch applied by this node
	ClusterPolicyFindings     Gauge   // analyzer findings in the current replicated policy state
	ClusterSnapshotsApplied   Counter // replicated snapshots applied by this node's follower
	ClusterSnapshotsPublished Counter // snapshots broadcast by this node's publisher
	ClusterSyncFailures       Counter // failed publisher connection/stream attempts
	ClusterStaleRefusals      Counter // decisions refused by the staleness guard (replica beyond max-staleness)

	// GRAM server (internal/gram).
	Requests         Counter // dispatched protocol requests
	RequestsInflight Gauge   // requests currently being dispatched
	ConnsActive      Gauge   // open authenticated connections
	QueueWaiting     Gauge   // requests blocked on a free connection worker

	// Audit pipeline (internal/audit, docs/AUDIT.md). Average batch
	// size is derived: AuditRecords / AuditBatches.
	AuditRecords        Counter   // records committed to the log
	AuditBatches        Counter   // group commits flushed
	AuditSegmentsSealed Counter   // segments rotated and sealed with a signed root
	AuditDropped        Counter   // records shed with the queue full (drop mode) or after Close
	AuditBlocked        Counter   // appends that waited for queue space (block mode)
	AuditQueueDepth     Gauge     // queued records, sampled at each group commit
	AuditFlushSeconds   Histogram // group-commit flush latency
}

// NewMetrics returns a fresh metric set.
func NewMetrics() *Metrics { return &Metrics{} }

// MetricDesc describes one metric for catalog comparison and rendering.
type MetricDesc struct {
	Name string
	Kind string // "counter", "gauge" or "histogram"
	Help string
}

// metricDesc binds a descriptor to its value reader. write renders the
// metric's text-format lines.
type metricDesc struct {
	MetricDesc
	write func(m *Metrics, w io.Writer) error
}

func counterDesc(name, help string, get func(*Metrics) *Counter) metricDesc {
	return metricDesc{MetricDesc{name, "counter", help}, func(m *Metrics, w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %d\n", name, get(m).Load())
		return err
	}}
}

func gaugeDesc(name, help string, get func(*Metrics) *Gauge) metricDesc {
	return metricDesc{MetricDesc{name, "gauge", help}, func(m *Metrics, w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %d\n", name, get(m).Load())
		return err
	}}
}

func histogramDesc(name, help string, get func(*Metrics) *Histogram) metricDesc {
	return metricDesc{MetricDesc{name, "histogram", help}, func(m *Metrics, w io.Writer) error {
		h := get(m)
		// Cumulative buckets, expvar-style flat names: one line per upper
		// bound, then +Inf, sum (seconds) and count.
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket_le_%s %d\n", name,
				strconv.FormatFloat(ub, 'g', -1, 64), cum); err != nil {
				return err
			}
		}
		count := h.count.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket_le_inf %d\n", name, count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum().Seconds()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", name, count)
		return err
	}}
}

// descriptors is the single source of truth for metric names, kinds and
// render order. It is sorted by name; TestCatalogSorted enforces that,
// which makes /metrics output stable-ordered by construction.
var descriptors = []metricDesc{
	counterDesc("audit_batches_total", "audit group commits flushed", func(m *Metrics) *Counter { return &m.AuditBatches }),
	counterDesc("audit_blocked_total", "audit appends that waited for queue space (block mode)", func(m *Metrics) *Counter { return &m.AuditBlocked }),
	counterDesc("audit_dropped_total", "audit records shed with the queue full (drop mode) or after close", func(m *Metrics) *Counter { return &m.AuditDropped }),
	histogramDesc("audit_flush_seconds", "audit group-commit flush latency", func(m *Metrics) *Histogram { return &m.AuditFlushSeconds }),
	gaugeDesc("audit_queue_depth", "audit records queued for commit, sampled at each group commit", func(m *Metrics) *Gauge { return &m.AuditQueueDepth }),
	counterDesc("audit_records_total", "audit records committed to the log", func(m *Metrics) *Counter { return &m.AuditRecords }),
	counterDesc("audit_segments_sealed_total", "audit segments rotated and sealed with a signed root", func(m *Metrics) *Counter { return &m.AuditSegmentsSealed }),
	histogramDesc("authz_decision_seconds", "combined callout decision latency", func(m *Metrics) *Histogram { return &m.DecisionSeconds }),
	counterDesc("authz_decisions_deny_total", "callout decisions with effect deny", func(m *Metrics) *Counter { return &m.DecisionsDeny }),
	counterDesc("authz_decisions_error_total", "callout decisions with effect error (authorization system failure)", func(m *Metrics) *Counter { return &m.DecisionsError }),
	counterDesc("authz_decisions_not_applicable_total", "callout decisions with effect not-applicable", func(m *Metrics) *Counter { return &m.DecisionsNotApplicable }),
	counterDesc("authz_decisions_permit_total", "callout decisions with effect permit", func(m *Metrics) *Counter { return &m.DecisionsPermit }),
	counterDesc("authz_retries_total", "extra PDP attempts after transient Error decisions", func(m *Metrics) *Counter { return &m.AuthzRetries }),
	counterDesc("breaker_closed_total", "circuit-breaker half-open to closed transitions", func(m *Metrics) *Counter { return &m.BreakerClosed }),
	counterDesc("breaker_half_open_total", "circuit-breaker open to half-open transitions", func(m *Metrics) *Counter { return &m.BreakerHalfOpen }),
	counterDesc("breaker_opened_total", "circuit-breaker transitions to open", func(m *Metrics) *Counter { return &m.BreakerOpened }),
	counterDesc("breaker_shed_total", "calls refused by an open circuit breaker", func(m *Metrics) *Counter { return &m.BreakerShed }),
	counterDesc("cluster_auth_failures_total", "cluster replication peers refused by the GSI handshake or subscriber policy", func(m *Metrics) *Counter { return &m.ClusterAuthFailures }),
	gaugeDesc("cluster_diverged_sources", "policy sources pinned on their last good policy after a replicated snapshot failed to parse", func(m *Metrics) *Gauge { return &m.ClusterDivergedSources }),
	gaugeDesc("cluster_epoch", "last cluster replication epoch applied by this node", func(m *Metrics) *Gauge { return &m.ClusterEpoch }),
	gaugeDesc("cluster_policy_findings", "static-analyzer findings in the current replicated policy state", func(m *Metrics) *Gauge { return &m.ClusterPolicyFindings }),
	counterDesc("cluster_snapshots_applied_total", "replicated policy snapshots applied by this node's follower", func(m *Metrics) *Counter { return &m.ClusterSnapshotsApplied }),
	counterDesc("cluster_snapshots_published_total", "policy snapshots broadcast by this node's publisher", func(m *Metrics) *Counter { return &m.ClusterSnapshotsPublished }),
	counterDesc("cluster_stale_refusals_total", "decisions refused by the staleness guard with the replica beyond max-staleness", func(m *Metrics) *Counter { return &m.ClusterStaleRefusals }),
	counterDesc("cluster_sync_failures_total", "failed connection or stream attempts to the cluster publisher", func(m *Metrics) *Counter { return &m.ClusterSyncFailures }),
	gaugeDesc("gram_connections_active", "open authenticated GRAM connections", func(m *Metrics) *Gauge { return &m.ConnsActive }),
	gaugeDesc("gram_queue_waiting", "requests waiting for a free connection worker", func(m *Metrics) *Gauge { return &m.QueueWaiting }),
	gaugeDesc("gram_requests_inflight", "GRAM requests currently dispatching", func(m *Metrics) *Gauge { return &m.RequestsInflight }),
	counterDesc("gram_requests_total", "dispatched GRAM protocol requests", func(m *Metrics) *Counter { return &m.Requests }),
	counterDesc("gsi_cert_sig_checks_total", "certificate signatures examined by chain verification in full GSI handshakes", func(m *Metrics) *Counter { return &m.CertSigChecks }),
	counterDesc("gsi_cert_sig_memo_hits_total", "certificate signatures answered by the trust store's signature memo without Ed25519 arithmetic", func(m *Metrics) *Counter { return &m.CertSigMemoHits }),
	counterDesc("gsi_handshakes_failed_total", "failed GSI handshakes", func(m *Metrics) *Counter { return &m.HandshakesFailed }),
	counterDesc("gsi_handshakes_full_total", "full (non-resumed) GSI handshakes", func(m *Metrics) *Counter { return &m.HandshakesFull }),
	counterDesc("gsi_handshakes_resumed_total", "session-resumed GSI handshakes", func(m *Metrics) *Counter { return &m.HandshakesResumed }),
	counterDesc("gsi_tickets_old_secret_total", "resumption tickets redeemed under a superseded ring secret inside its rotation overlap window", func(m *Metrics) *Counter { return &m.TicketsOldSecret }),
	counterDesc("gsi_tickets_rejected_total", "resumption tickets refused at redemption (bad seal, expiry, unknown or retired secret version)", func(m *Metrics) *Counter { return &m.TicketsRejected }),
	counterDesc("policy_findings_total", "static-analyzer findings observed at policy install time", func(m *Metrics) *Counter { return &m.PolicyFindings }),
}

// Catalog returns the documented metric set, sorted by name.
func Catalog() []MetricDesc {
	out := make([]MetricDesc, len(descriptors))
	for i, d := range descriptors {
		out[i] = d.MetricDesc
	}
	return out
}

// WriteTo renders the metrics in the expvar-style text format served at
// GET /metrics: one "name value" line per scalar, histograms expanded
// into cumulative _bucket_le_*, _sum and _count lines. Output order is
// stable (descriptor order, which is sorted by name).
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	for _, d := range descriptors {
		if err := d.write(m, cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
