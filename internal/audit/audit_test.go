package audit

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/obs"
	"gridauth/internal/policy"
)

const kate = "/O=Grid/CN=Kate"

func permitPDP() core.PDP {
	return core.PDPFunc{ID: "p", Fn: func(context.Context, *core.Request) core.Decision {
		return core.PermitDecision("p", "ok")
	}}
}

func denyPDP() core.PDP {
	return core.PDPFunc{ID: "d", Fn: func(context.Context, *core.Request) core.Decision {
		return core.DenyDecision("d", "no")
	}}
}

// newLog builds a log whose ring holds capacity records and closes it
// when the test ends.
func newLog(t *testing.T, capacity int) *Log {
	t.Helper()
	log, err := NewPipeline(Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := log.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return log
}

// testCallout is the callout type the tests bind their PDP to.
const testCallout = "test_authz"

// registryFor returns a registry whose testCallout chain is pdp.
func registryFor(pdp core.PDP) *core.Registry {
	reg := core.NewRegistry()
	reg.Bind(testCallout, pdp)
	return reg
}

func TestRingEviction(t *testing.T) {
	log := newLog(t, 3)
	reg := registryFor(permitPDP())
	for i := 0; i < 5; i++ {
		Enforce(context.Background(), reg, log, testCallout, &core.Request{Subject: kate, Action: policy.ActionStart, JobID: "j" + string(rune('0'+i))})
	}
	if log.Len() != 3 {
		t.Fatalf("Len = %d", log.Len())
	}
	if log.Dropped() != 2 {
		t.Errorf("Dropped = %d", log.Dropped())
	}
	recs := log.Records()
	if recs[0].JobID != "j2" || recs[2].JobID != "j4" {
		t.Errorf("eviction order wrong: %v ... %v", recs[0].JobID, recs[2].JobID)
	}
}

// TestDroppedIsReadYourWrites asks for the eviction count straight
// after the appends, before any other query has flushed the writer: it
// must already count the evictions those appends cause.
func TestDroppedIsReadYourWrites(t *testing.T) {
	log, err := NewPipeline(Config{Capacity: 3, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for i := 0; i < 5; i++ {
		log.Append(Record{JobID: itoa(i)})
	}
	if got := log.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d right after 5 appends into a 3-record ring, want 2", got)
	}
}

func TestFilterDenialsStats(t *testing.T) {
	log := newLog(t, 16)
	p, d := registryFor(permitPDP()), registryFor(denyPDP())
	req := &core.Request{Subject: kate, Action: policy.ActionStart}
	Enforce(context.Background(), p, log, testCallout, req)
	Enforce(context.Background(), d, log, testCallout, req)
	Enforce(context.Background(), d, log, testCallout, req)
	if got := len(log.Denials()); got != 2 {
		t.Errorf("Denials = %d", got)
	}
	stats := log.Stats()
	if stats["permit"] != 1 || stats["deny"] != 2 {
		t.Errorf("stats = %v", stats)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	log := newLog(t, 8)
	log.SetClock(func() time.Time { return time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC) })
	Enforce(context.Background(), registryFor(denyPDP()), log, testCallout, &core.Request{Subject: kate, Action: policy.ActionCancel, JobOwner: "/O=Grid/CN=Bo"})
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Subject != kate || recs[0].JobOwner != "/O=Grid/CN=Bo" {
		t.Errorf("round trip = %+v", recs)
	}
	if _, err := ReadJSONL(bytes.NewBufferString("nonsense")); err == nil {
		t.Errorf("garbage accepted")
	}
}

// Property: the ring retains exactly min(n, capacity) newest records in
// order.
func TestQuickRingOrder(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		log, err := NewPipeline(Config{Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		total := int(n % 64)
		for i := 0; i < total; i++ {
			log.Append(Record{JobID: itoa(i), Time: time.Unix(int64(i), 0)})
		}
		recs := log.Records()
		want := total
		if want > capacity {
			want = capacity
		}
		if len(recs) != want {
			return false
		}
		for i, r := range recs {
			if r.JobID != itoa(total-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestEnforceStampsRequestIDFromContext(t *testing.T) {
	log := newLog(t, 16)
	reg := registryFor(permitPDP())
	rid := obs.NewRequestID()
	ctx := obs.WithRequestID(context.Background(), rid)
	req := &core.Request{Subject: kate, Action: policy.ActionStart}
	if d := Enforce(ctx, reg, log, testCallout, req); d.Effect != core.Permit {
		t.Fatalf("decision = %v", d.Effect)
	}
	recs := log.Records()
	if len(recs) != 1 || recs[0].RequestID != rid {
		t.Fatalf("records = %+v, want one record with id %s", recs, rid)
	}
	// Without a context ID the field stays empty — the record still lands.
	Enforce(context.Background(), reg, log, testCallout, req)
	recs = log.Records()
	if len(recs) != 2 || recs[1].RequestID != "" {
		t.Fatalf("ctx-less record = %+v, want empty RequestID", recs[len(recs)-1])
	}
}

// TestEnforceFinishesTrace checks that a traced request's trace holds
// the decision Enforce acted on whether or not a log is configured, and
// that the record carries the trace's spans.
func TestEnforceFinishesTrace(t *testing.T) {
	reg := registryFor(denyPDP())
	req := &core.Request{Subject: kate, Action: policy.ActionStart}
	for _, log := range []*Log{nil, newLog(t, 4)} {
		rid := obs.NewRequestID()
		tr := obs.NewTrace(rid, kate)
		ctx := obs.WithRequestID(obs.WithTrace(context.Background(), tr), rid)
		Enforce(ctx, reg, log, testCallout, req)
		got := tr.Snapshot()
		if got.Callout != testCallout || got.Action != policy.ActionStart || got.Effect != "deny" || len(got.Spans) != 1 {
			t.Fatalf("trace after Enforce (log %v) = %+v", log != nil, got)
		}
		if log == nil {
			continue
		}
		recs := log.Records()
		if len(recs) != 1 || recs[0].RequestID != rid || !reflect.DeepEqual(recs[0].Spans, got.Spans) {
			t.Fatalf("records = %+v, want one carrying the trace's id and spans %+v", recs, got.Spans)
		}
	}
}

// TestConcurrentRequestIDsNeverInterleave drives many goroutines through
// one enforcement point, each with its own request ID and a distinguishing
// JobID. Every retained record must pair the request ID with the JobID
// it was issued for — concurrent appends must not mix fields across
// requests.
func TestConcurrentRequestIDsNeverInterleave(t *testing.T) {
	const workers, perWorker = 8, 50
	log := newLog(t, workers*perWorker)
	reg := registryFor(permitPDP())

	idOf := func(w, i int) string { return "req-" + itoa(w) + "-" + itoa(i) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rid := idOf(w, i)
				ctx := obs.WithRequestID(context.Background(), rid)
				req := &core.Request{Subject: kate, Action: policy.ActionStart, JobID: rid}
				Enforce(ctx, reg, log, testCallout, req)
			}
		}(w)
	}
	wg.Wait()

	recs := log.Records()
	if len(recs) != workers*perWorker {
		t.Fatalf("records = %d, want %d", len(recs), workers*perWorker)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if r.RequestID == "" || r.RequestID != r.JobID {
			t.Fatalf("record interleaved ids: requestId=%q jobId=%q", r.RequestID, r.JobID)
		}
		if seen[r.RequestID] {
			t.Fatalf("duplicate request id %s", r.RequestID)
		}
		seen[r.RequestID] = true
	}
}

func TestGeneratedRequestIDsUniqueUnderConcurrency(t *testing.T) {
	const workers, perWorker = 8, 200
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ids[w] = append(ids[w], obs.NewRequestID())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool, workers*perWorker)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("request id %s issued twice", id)
			}
			seen[id] = true
		}
	}
}

// SetClock overrides the time source. See the clock contract on Log:
// the override stamps Record.Time. Safe to call concurrently with
// Append.
func (l *Log) SetClock(now func() time.Time) {
	l.nowFn.Store(now)
}

// Dropped reports how many records the ring has evicted. It flushes
// first, so evictions by records appended before the call are counted.
func (l *Log) Dropped() uint64 {
	l.Flush()
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	return l.dropped
}
