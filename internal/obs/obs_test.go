package obs

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- metrics ---

func TestCounterGaugeConcurrent(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.DecisionsPermit.Inc()
				m.AuthzRetries.Add(2)
				m.RequestsInflight.Inc()
				m.RequestsInflight.Dec()
				// Snapshot reads race-free against writers.
				_ = m.DecisionsPermit.Load()
				var buf bytes.Buffer
				if i%100 == 0 {
					if _, err := m.WriteTo(&buf); err != nil {
						t.Errorf("WriteTo: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := m.DecisionsPermit.Load(); got != workers*per {
		t.Errorf("DecisionsPermit = %d, want %d", got, workers*per)
	}
	if got := m.AuthzRetries.Load(); got != 2*workers*per {
		t.Errorf("AuthzRetries = %d, want %d", got, 2*workers*per)
	}
	if got := m.RequestsInflight.Load(); got != 0 {
		t.Errorf("RequestsInflight = %d, want 0", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	// One observation exactly on each upper bound: le buckets are
	// inclusive, so each lands in its own bucket.
	for _, ub := range latencyBuckets {
		h.Observe(time.Duration(ub * float64(time.Second)))
	}
	// And one beyond the last bound: only +Inf (synthesized from count).
	h.Observe(time.Hour)
	for i := range latencyBuckets {
		if got := h.buckets[i].Load(); got != 1 {
			t.Errorf("bucket[%d] (le=%g) = %d, want 1", i, latencyBuckets[i], got)
		}
	}
	if got := h.Count(); got != uint64(len(latencyBuckets))+1 {
		t.Errorf("Count = %d, want %d", got, len(latencyBuckets)+1)
	}

	var buf bytes.Buffer
	m := NewMetrics()
	m.DecisionSeconds.Observe(300 * time.Microsecond) // between .00025 and .0005
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"authz_decision_seconds_bucket_le_0.00025 0\n",
		"authz_decision_seconds_bucket_le_0.0005 1\n",
		"authz_decision_seconds_bucket_le_inf 1\n",
		"authz_decision_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(seed+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("Count = %d, want %d", got, workers*per)
	}
}

var metricLine = regexp.MustCompile(`^[a-z][a-z0-9_.+-]* -?[0-9][0-9a-zA-Z.+-]*$`)

func TestMetricsOutputParsesAndIsStable(t *testing.T) {
	m := NewMetrics()
	m.DecisionsPermit.Add(3)
	m.DecisionSeconds.Observe(time.Millisecond)
	m.ConnsActive.Set(2)

	var a, b bytes.Buffer
	if _, err := m.WriteTo(&a); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if a.String() != b.String() {
		t.Error("two renders of an unchanged metric set differ (output not stable)")
	}

	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	var baseNames []string
	seen := make(map[string]bool)
	for _, ln := range lines {
		if !metricLine.MatchString(ln) {
			t.Errorf("line does not parse as 'name value': %q", ln)
			continue
		}
		name, valStr, _ := strings.Cut(ln, " ")
		if _, err := strconv.ParseFloat(valStr, 64); err != nil {
			t.Errorf("value of %q does not parse as a number: %v", ln, err)
		}
		base := name
		for _, suffix := range []string{"_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if i := strings.Index(base, "_bucket_le_"); i >= 0 {
			base = base[:i]
		}
		if !seen[base] {
			seen[base] = true
			baseNames = append(baseNames, base)
		}
	}
	if !sort.StringsAreSorted(baseNames) {
		t.Errorf("metric base names not sorted: %v", baseNames)
	}
	// Rendered names correspond one-to-one with the catalog.
	cat := Catalog()
	if len(baseNames) != len(cat) {
		t.Fatalf("rendered %d distinct metrics, catalog has %d", len(baseNames), len(cat))
	}
	for i, d := range cat {
		if baseNames[i] != d.Name {
			t.Errorf("rendered[%d] = %q, catalog %q", i, baseNames[i], d.Name)
		}
	}
}

func TestCatalogSorted(t *testing.T) {
	cat := Catalog()
	names := make([]string, len(cat))
	for i, d := range cat {
		names[i] = d.Name
		if d.Kind != "counter" && d.Kind != "gauge" && d.Kind != "histogram" {
			t.Errorf("metric %q has unknown kind %q", d.Name, d.Kind)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("catalog not sorted by name: %v", names)
	}
}

func TestMetricsFastPathAllocates(t *testing.T) {
	m := NewMetrics()
	if n := testing.AllocsPerRun(100, func() { m.DecisionsPermit.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.ConnsActive.Inc(); m.ConnsActive.Dec() }); n != 0 {
		t.Errorf("Gauge.Inc/Dec allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.DecisionSeconds.Observe(time.Millisecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", n)
	}
}

// --- trace ---

func TestTraceSpansAndSnapshot(t *testing.T) {
	tr := NewTrace("rid-1", "/O=Grid/CN=Alice")
	tr.Record(Span{PDP: "policy:vo", Effect: "permit", Source: "VO:NFC", Elapsed: time.Microsecond})
	tr.Record(Span{PDP: "policy:local", Effect: "deny", Source: "local", Elapsed: 2 * time.Microsecond})
	if tr.Finished() {
		t.Error("Finished before Finish")
	}
	tr.Finish("globus_gram_jobmanager_authz", "start", "deny", "local", "queue not allowed")
	if !tr.Finished() {
		t.Error("not Finished after Finish")
	}
	rec := tr.Snapshot()
	if rec.RequestID != "rid-1" || rec.Subject != "/O=Grid/CN=Alice" {
		t.Errorf("identity fields wrong: %+v", rec)
	}
	if rec.Callout != "globus_gram_jobmanager_authz" || rec.Action != "start" ||
		rec.Effect != "deny" || rec.Source != "local" {
		t.Errorf("summary fields wrong: %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].PDP != "policy:vo" || rec.Spans[1].Effect != "deny" {
		t.Errorf("spans wrong: %+v", rec.Spans)
	}
	// Snapshot is a copy: mutating the trace afterwards must not affect it.
	tr.Record(Span{PDP: "late"})
	if len(rec.Spans) != 2 {
		t.Error("snapshot aliases live span slice")
	}
}

func TestTraceConcurrentRecord(t *testing.T) {
	tr := NewTrace("rid-c", "s")
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				tr.Record(Span{PDP: fmt.Sprintf("pdp-%d", i), Effect: "permit"})
				_ = tr.Spans()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != workers*per {
		t.Errorf("span count = %d, want %d", got, workers*per)
	}
}

func TestSpanContextAnnotation(t *testing.T) {
	ctx := context.Background()
	if SpanFrom(ctx) != nil || TraceFrom(ctx) != nil || RequestIDFrom(ctx) != "" {
		t.Error("empty context should carry nothing")
	}
	sp := &Span{PDP: "p"}
	ctx = WithSpan(ctx, sp)
	SpanFrom(ctx).Retries = 3
	SpanFrom(ctx).Breaker = "open"
	if sp.Retries != 3 || sp.Breaker != "open" {
		t.Errorf("annotation through context lost: %+v", sp)
	}
	ctx = WithRequestID(ctx, "rid-9")
	if got := RequestIDFrom(ctx); got != "rid-9" {
		t.Errorf("RequestIDFrom = %q", got)
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	const workers, per = 8, 500
	var mu sync.Mutex
	seen := make(map[string]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, 0, per)
			for i := 0; i < per; i++ {
				ids = append(ids, NewRequestID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate request ID %q", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

// --- store ---

func TestTraceStoreEviction(t *testing.T) {
	s := NewTraceStore(3)
	for i := 1; i <= 5; i++ {
		tr := NewTrace(fmt.Sprintf("rid-%d", i), "s")
		tr.Finish("c", "start", "permit", "", "")
		s.Publish(tr)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if _, ok := s.Get("rid-1"); ok {
		t.Error("oldest trace not evicted")
	}
	if _, ok := s.Get("rid-2"); ok {
		t.Error("second-oldest trace not evicted")
	}
	for i := 3; i <= 5; i++ {
		if _, ok := s.Get(fmt.Sprintf("rid-%d", i)); !ok {
			t.Errorf("rid-%d missing", i)
		}
	}
	want := []string{"rid-3", "rid-4", "rid-5"}
	got := s.RequestIDs()
	if len(got) != len(want) {
		t.Fatalf("RequestIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RequestIDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var s *TraceStore
	s.Publish(NewTrace("x", "y")) // must not panic
}

func TestTraceStoreConcurrent(t *testing.T) {
	s := NewTraceStore(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr := NewTrace(fmt.Sprintf("w%d-%d", i, j), "s")
				s.Publish(tr)
				s.Get(fmt.Sprintf("w%d-%d", i, j))
				s.RequestIDs()
			}
		}(w)
	}
	wg.Wait()
}

// --- http ---

func TestServeMuxEndpoints(t *testing.T) {
	m := NewMetrics()
	m.DecisionsDeny.Inc()
	s := NewTraceStore(8)
	tr := NewTrace("rid-h", "/O=Grid/CN=Alice")
	tr.Record(Span{PDP: "policy:vo", Effect: "deny"})
	tr.Finish("globus_gram_jobmanager_authz", "start", "deny", "VO:NFC", "no grant")
	s.Publish(tr)

	srv := httptest.NewServer(NewServeMux(m, s))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, buf.String()
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "authz_decisions_deny_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body = get("/trace?id=rid-h")
	if code != http.StatusOK || !strings.Contains(body, `"requestId":"rid-h"`) ||
		!strings.Contains(body, `"pdp":"policy:vo"`) {
		t.Errorf("/trace = %d %q", code, body)
	}
	if code, _ = get("/trace?id=nope"); code != http.StatusNotFound {
		t.Errorf("/trace unknown id = %d, want 404", code)
	}
	if code, _ = get("/trace"); code != http.StatusBadRequest {
		t.Errorf("/trace without id = %d, want 400", code)
	}
	code, body = get("/traces")
	if code != http.StatusOK || !strings.Contains(body, "rid-h") {
		t.Errorf("/traces = %d %q", code, body)
	}
}

// Finished reports whether Finish has run (i.e. an enforcement point
// acted on a decision; requests refused before any callout — a limited
// proxy asking to start a job — never finish their trace).
func (t *Trace) Finished() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished
}
