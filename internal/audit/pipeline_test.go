package audit

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/obs"
)

// gatedSink stalls WriteBatch until the gate closes, simulating a slow
// or wedged storage backend so the queue-full degraded modes can be
// exercised deterministically.
type gatedSink struct {
	mem  *MemSink
	gate chan struct{}
}

func newGatedSink() *gatedSink {
	return &gatedSink{mem: NewMemSink(), gate: make(chan struct{})}
}

func (g *gatedSink) WriteBatch(segIndex int, lines [][]byte) error {
	<-g.gate
	return g.mem.WriteBatch(segIndex, lines)
}
func (g *gatedSink) SealSegment(m *Manifest) error { return g.mem.SealSegment(m) }
func (g *gatedSink) Close() error                  { return g.mem.Close() }

// committed counts the records a MemSink holds across all segments.
func committed(m *MemSink) int {
	n := 0
	for i := 0; ; i++ {
		seg := m.Segment(i)
		if seg == nil {
			return n
		}
		n += bytes.Count(seg, []byte("\n"))
	}
}

func TestPipelineConcurrentAppendAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := NewPipeline(Config{
		Sink:           sink,
		Batch:          4,
		FlushInterval:  time.Millisecond,
		SegmentRecords: 16, // force many rotations under load
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				log.Append(Record{
					Subject: "/O=Grid/CN=Kate",
					Action:  fmt.Sprintf("start-%d-%d", w, i),
					PDP:     "p",
					Effect:  core.Permit.String(),
				})
			}
		}(w)
	}
	wg.Wait()
	if err := log.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := log.QueueDropped(); n != 0 {
		t.Fatalf("queue dropped %d records with an unbounded-enough queue", n)
	}
	rep, err := VerifyDir(dir, nil)
	if err != nil {
		t.Fatalf("verify after concurrent rotation: %v", err)
	}
	if got := rep.Records + rep.Open; got != workers*perWorker {
		t.Fatalf("verified %d records (open %d), appended %d", got, rep.Open, workers*perWorker)
	}
	sealed := 0
	for _, s := range rep.Segments {
		if s.Sealed {
			sealed++
		}
	}
	if sealed < 2 {
		t.Fatalf("expected multiple sealed segments at threshold 16, got %d", sealed)
	}
}

func TestPipelineBlockModeIsLossless(t *testing.T) {
	sink := newGatedSink()
	m := obs.NewMetrics()
	log, err := NewPipeline(Config{
		Sink:          sink,
		Queue:         8,
		Batch:         4,
		FlushInterval: time.Millisecond,
		Mode:          ModeBlock,
		Metrics:       m,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Far more records than queue+batch can hold while the sink is
	// wedged: block mode must make the appenders wait, not shed.
	const total = 500
	var wg sync.WaitGroup
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/5; i++ {
				log.Append(Record{Action: "start", PDP: "p", Effect: "permit"})
			}
		}()
	}
	// Give the appenders time to saturate the queue against the wedged
	// sink, then open the gate.
	time.Sleep(20 * time.Millisecond)
	if m.AuditBlocked.Load() == 0 {
		t.Fatalf("no append ever blocked against a wedged sink and a full queue")
	}
	close(sink.gate)
	wg.Wait()
	if err := log.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := log.QueueDropped(); n != 0 {
		t.Fatalf("block mode dropped %d records", n)
	}
	if got := committed(sink.mem); got != total {
		t.Fatalf("sink holds %d records, appended %d", got, total)
	}
}

func TestPipelineDropModeShedsAndCounts(t *testing.T) {
	sink := newGatedSink()
	m := obs.NewMetrics()
	log, err := NewPipeline(Config{
		Sink:          sink,
		Queue:         8,
		Batch:         4,
		FlushInterval: time.Millisecond,
		Mode:          ModeDrop,
		Metrics:       m,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1000
	for i := 0; i < total; i++ { // never blocks: drop mode on the caller's goroutine
		log.Append(Record{Action: "start", PDP: "p", Effect: "permit"})
	}
	close(sink.gate)
	if err := log.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	dropped := log.QueueDropped()
	if dropped == 0 {
		t.Fatalf("a wedged sink and an 8-slot queue shed nothing out of %d appends", total)
	}
	if got := committed(sink.mem); uint64(got)+dropped != total {
		t.Fatalf("accounting hole: %d committed + %d dropped != %d appended", got, dropped, total)
	}
	if got := m.AuditDropped.Load(); got != dropped {
		t.Fatalf("audit_dropped_total = %d, QueueDropped = %d", got, dropped)
	}
}

func TestPipelineAppendAfterCloseCountsAsDrop(t *testing.T) {
	log, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	log.Append(Record{Action: "start", PDP: "p", Effect: "permit"})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log.Append(Record{Action: "late", PDP: "p", Effect: "permit"})
	if n := log.QueueDropped(); n != 1 {
		t.Fatalf("post-Close append counted as %d drops, want 1", n)
	}
	if err := log.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
}

func TestSealedSegmentRoundTripsThroughReadJSONL(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := NewPipeline(Config{Sink: sink, Batch: 4, SegmentRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		log.Append(Record{
			Subject: "/O=Grid/CN=Kate",
			Action:  fmt.Sprintf("action-%d", i),
			PDP:     "p",
			Effect:  core.Permit.String(),
			Reason:  "ok",
			Elapsed: time.Duration(i) * time.Microsecond,
		})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "segment-000000.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadJSONL(f)
	if err != nil {
		t.Fatalf("read sealed segment: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("round-tripped %d records, wrote %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d carries seq %d: pipeline sequence not ascending from 0", i, r.Seq)
		}
		if want := fmt.Sprintf("action-%d", i); r.Action != want {
			t.Fatalf("record %d action %q, want %q (order not preserved)", i, r.Action, want)
		}
		if r.Elapsed != time.Duration(i)*time.Microsecond {
			t.Fatalf("record %d elapsed %v did not round-trip", i, r.Elapsed)
		}
	}
}

// TestEnforceStampsInjectedClock pins the clock contract: the clock
// SetClock installs stamps Record.Time, and no producer measures
// Record.Elapsed, which stays 0 in the record format.
func TestEnforceStampsInjectedClock(t *testing.T) {
	log := newLog(t, 4)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	log.SetClock(func() time.Time { return base })
	if d := Enforce(context.Background(), registryFor(permitPDP()), log, testCallout, &core.Request{Subject: kate, Action: "start"}); d.Effect != core.Permit {
		t.Fatalf("decision: %v", d.Effect)
	}
	recs := log.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if !recs[0].Time.Equal(base) || recs[0].Elapsed != 0 {
		t.Fatalf("Record.Time = %v, Elapsed = %v: want the injected clock's reading %v and 0", recs[0].Time, recs[0].Elapsed, base)
	}
}

func TestParseDegradedMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DegradedMode
		ok   bool
	}{
		{"block", ModeBlock, true},
		{"drop", ModeDrop, true},
		{"panic", ModeBlock, false},
	} {
		got, err := ParseDegradedMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseDegradedMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ModeBlock.String() != "block" || ModeDrop.String() != "drop" {
		t.Fatalf("mode String() does not round-trip the flag values")
	}
}
