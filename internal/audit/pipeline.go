// The asynchronous pipeline: a bounded queue feeding a single writer
// goroutine that group-commits records — hashing each into a leaf,
// Merkle-summarizing the batch, chaining the batch root onto the hash
// chain, appending the raw JSONL to the sink — and rotates + seals
// segments. Appending is what the enforcement
// points pay on the decision hot path; everything cryptographic happens
// on the writer, off that path. When the queue fills, the configured
// DegradedMode decides the failure semantics: ModeBlock applies
// backpressure (no decision proceeds unaudited — fail closed, the
// startup-PEP posture), ModeDrop sheds the record and counts it (the
// trail thins but the service answers — fail open). docs/AUDIT.md's
// degraded-mode matrix says which mode fits which enforcement point.

package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridauth/internal/obs"
)

// DegradedMode selects what Append does when the pipeline queue is
// full.
type DegradedMode int

const (
	// ModeBlock makes Append wait for queue space: auditing applies
	// backpressure and no record is lost.
	ModeBlock DegradedMode = iota
	// ModeDrop makes Append shed the record immediately, counting it in
	// QueueDropped and the audit_dropped_total metric.
	ModeDrop
)

// String renders the mode as its flag value.
func (m DegradedMode) String() string {
	if m == ModeDrop {
		return "drop"
	}
	return "block"
}

// ParseDegradedMode parses a -audit-mode flag value.
func ParseDegradedMode(s string) (DegradedMode, error) {
	switch s {
	case "block":
		return ModeBlock, nil
	case "drop":
		return ModeDrop, nil
	}
	return ModeBlock, fmt.Errorf("audit: unknown degraded mode %q (want block or drop)", s)
}

// Writer sizing. The gatekeeper exposes only the segment size as a
// flag (-audit-segment); the rest are constants, because P11's sweep
// (docs/PERFORMANCE.md) found no setting that beats them: batch 256 is
// within 2 % of 1024, a deeper queue costs throughput, and the flush
// interval is invisible at rate. Config keeps the fields as test seams.
const (
	DefaultCapacity       = 4096
	DefaultQueue          = 8192
	DefaultBatch          = 256
	DefaultFlushInterval  = 5 * time.Millisecond
	DefaultSegmentRecords = 65536
)

// Config parameterizes NewPipeline. The zero value of every field
// selects a production-reasonable default.
type Config struct {
	// Capacity bounds the in-memory recent-records ring behind the
	// query methods (default DefaultCapacity). Ring eviction does not
	// lose records: they are already committed to the sink.
	Capacity int
	// Queue bounds the append queue (default DefaultQueue).
	Queue int
	// Batch caps records per group commit (default DefaultBatch).
	Batch int
	// FlushInterval bounds how long a queued record waits for a commit
	// when traffic is light (default DefaultFlushInterval).
	FlushInterval time.Duration
	// SegmentRecords is the rotation threshold: the first group commit
	// that brings the open segment to this many records seals it
	// (default DefaultSegmentRecords). Segments may therefore exceed the
	// threshold by at most one batch.
	SegmentRecords int
	// Mode is the queue-full policy (default ModeBlock).
	Mode DegradedMode
	// Sink receives committed batches and sealed manifests (default: a
	// fresh MemSink).
	Sink Sink
	// Sealer signs segment manifests (default: a fresh ephemeral key).
	Sealer *Sealer
	// Metrics, when non-nil, feeds the audit_* series of the catalog
	// (docs/OBSERVABILITY.md): records/batches/segments counters, queue
	// depth, flush latency, dropped and blocked counts.
	Metrics *obs.Metrics
}

// NewPipeline starts the asynchronous tamper-evident writer and
// returns the Log fronting it. It is the only way to build a Log. The
// caller owns the Log and must Close it to seal the final segment,
// release the sink and stop the writer goroutine.
func NewPipeline(cfg Config) (*Log, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = DefaultSegmentRecords
	}
	if cfg.Sink == nil {
		cfg.Sink = NewMemSink()
	}
	if cfg.Sealer == nil {
		s, err := NewSealer()
		if err != nil {
			return nil, err
		}
		cfg.Sealer = s
	}
	l := &Log{
		cfg:       cfg,
		records:   make([]Record, cfg.Capacity),
		wake:      make(chan struct{}, 1),
		flushCh:   make(chan chan struct{}),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		chain:     genesisChain(),
		chainInit: genesisChain(),
	}
	l.nowFn.Store(time.Now)
	l.notFull.L = &l.mu
	go l.run()
	return l, nil
}

// Log is the decision log: a bounded append queue feeding one writer
// goroutine, and a bounded ring of the most recently committed records
// behind the query methods (Records, Filter, Denials, Stats,
// WriteJSONL).
//
// The queue is a swap buffer, the shape real group-commit writers use:
// appenders append to pending under mu (one short critical section per
// record), and the writer goroutine takes the whole slice in one swap
// per commit. Compared with a channel this removes a per-record
// select, a per-record copy, and most lock traffic — which is what
// lets a single writer core sustain the P11 throughput bar.
//
// Clock contract: the log's time source (the wall clock, unless a test
// injects its own) stamps Record.Time for every record entering
// through Append without one, so a test that injects a clock can
// assert it deterministically. Writer internals (flush scheduling,
// metrics) keep using the wall clock; the injected clock governs
// record content only.
type Log struct {
	cfg   Config
	nowFn atomic.Value // func() time.Time

	// The recent-records ring, filled at group commit.
	ringMu  sync.Mutex
	records []Record
	start   int
	count   int
	dropped uint64

	mu      sync.Mutex
	notFull sync.Cond     // appenders in ModeBlock wait here when pending is full
	pending []Record      // append side; bounded by cfg.Queue
	spare   []Record      // writer-owned swap target, ping-ponged with pending
	wake    chan struct{} // cap 1: pending went non-empty or reached a full batch
	flushCh chan chan struct{}
	stop    chan struct{}
	done    chan struct{}

	closeOnce    sync.Once
	closed       atomic.Bool
	queueDropped atomic.Uint64
	sinkErr      atomic.Value // error

	// Writer-goroutine-only state below.
	seq         uint64
	segIndex    int
	segFirstSeq uint64
	segCount    int
	segBatches  []BatchInfo
	chain       digest
	chainInit   digest
	prevSeal    string

	// Per-commit scratch, reused so a steady-state group commit
	// allocates nothing: the rendered JSONL bytes, per-line end offsets
	// into buf, the line sub-slices handed to the sink, and the leaf
	// hashes.
	enc    recordEncoder
	buf    []byte
	ends   []int
	lines  [][]byte
	leaves []digest
}

// Append enqueues a record for the next group commit, stamping its time
// when unset. With the queue full the configured DegradedMode decides
// whether Append waits (ModeBlock) or sheds the record and counts it
// (ModeDrop) — the block-vs-drop trade per enforcement point is
// tabulated in docs/AUDIT.md.
func (l *Log) Append(r Record) {
	if r.Time.IsZero() {
		r.Time = l.clockNow()
	}
	if l.closed.Load() {
		l.countDrop()
		return
	}
	l.mu.Lock()
	if len(l.pending) >= l.cfg.Queue {
		// Queue full: degrade per the configured mode.
		if l.cfg.Mode == ModeDrop {
			l.mu.Unlock()
			l.countDrop()
			return
		}
		if m := l.cfg.Metrics; m != nil {
			m.AuditBlocked.Inc()
		}
		for len(l.pending) >= l.cfg.Queue && !l.closed.Load() {
			l.notFull.Wait()
		}
	}
	if l.closed.Load() {
		// Shutdown raced the append; the record is lost and counted,
		// exactly like a post-Close append. (Close sets closed before the
		// writer's final drain, so everything appended while !closed under
		// mu is still committed.)
		l.mu.Unlock()
		l.countDrop()
		return
	}
	l.pending = append(l.pending, r)
	// Wake the writer when pending goes non-empty (it only sleeps after
	// observing it empty) and again when a full batch is ready (so a
	// sustained burst commits immediately instead of at the next tick).
	notify := len(l.pending) == 1 || len(l.pending) == l.cfg.Batch
	l.mu.Unlock()
	if notify {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

func (l *Log) countDrop() {
	l.queueDropped.Add(1)
	if m := l.cfg.Metrics; m != nil {
		m.AuditDropped.Inc()
	}
}

// Flush blocks until every record appended before the call has been
// committed (hashed, chained and handed to the sink).
func (l *Log) Flush() {
	ack := make(chan struct{})
	select {
	case l.flushCh <- ack:
		select {
		case <-ack:
		case <-l.done:
		}
	case <-l.done:
	}
}

// Close drains and commits everything queued, seals the open segment,
// closes the sink and stops the writer. Appends arriving after Close
// are counted as queue drops. Close is idempotent; it returns the first
// error the sink reported.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.closed.Store(true)
		// Release appenders blocked on a full queue; they observe closed
		// and count their record as dropped.
		l.mu.Lock()
		l.notFull.Broadcast()
		l.mu.Unlock()
		close(l.stop)
		<-l.done
	})
	if err, ok := l.sinkErr.Load().(error); ok {
		return err
	}
	return nil
}

// QueueDropped reports how many records the log shed because the
// bounded queue was full (ModeDrop), because the record arrived after
// Close, or because it could not be rendered. Distinct from a ring
// eviction: an evicted record left the recent-records window but was
// still committed to the sink; a queue-dropped record is gone.
//
//authlint:ignore deadexport BenchmarkP11_AuditThroughput checks that its pipelines shed no record
func (l *Log) QueueDropped() uint64 {
	return l.queueDropped.Load()
}

// run is the single writer goroutine.
func (l *Log) run() {
	defer close(l.done)
	ticker := time.NewTicker(l.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.wake:
			// Commit only once a full batch is pending; a partial batch
			// waits for the ticker, which bounds its latency to
			// FlushInterval — the group-commit contract.
			l.commitPending(false)
		case <-ticker.C:
			l.commitPending(true)
		case ack := <-l.flushCh:
			l.commitPending(true)
			close(ack)
		case <-l.stop:
			l.commitPending(true)
			l.sealSegment()
			if err := l.cfg.Sink.Close(); err != nil {
				l.noteErr(err)
			}
			return
		}
	}
}

// commitPending swaps out the pending records and commits them in
// batch-sized chunks, looping while full batches keep arriving. With
// force it also commits a trailing partial batch (tick, flush,
// shutdown) — but only what was pending on entry, so a flush cannot
// chase an active appender forever.
func (l *Log) commitPending(force bool) {
	for {
		l.mu.Lock()
		n := len(l.pending)
		if n == 0 || (!force && n < l.cfg.Batch) {
			if m := l.cfg.Metrics; m != nil {
				m.AuditQueueDepth.Set(int64(n))
			}
			l.mu.Unlock()
			return
		}
		batch := l.pending
		l.pending = l.spare[:0]
		l.notFull.Broadcast()
		l.mu.Unlock()
		for off := 0; off < len(batch); off += l.cfg.Batch {
			end := off + l.cfg.Batch
			if end > len(batch) {
				end = len(batch)
			}
			l.commit(batch[off:end])
		}
		l.spare = batch // keep the array for the next swap
		force = false
	}
}

// commit is the group commit: sequence, hash-chain and Merkle-summarize
// the batch, hand the raw lines to the sink, publish the records to the
// query ring, and rotate the segment at the threshold.
func (l *Log) commit(batch []Record) {
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	info := BatchInfo{FirstSeq: l.seq}
	l.buf, l.ends = l.buf[:0], l.ends[:0]
	kept := 0 // records that rendered; a failure compacts the batch in place
	for i := range batch {
		r := &batch[i]
		r.Seq = l.seq
		from := len(l.buf)
		// Each record is rendered as [0x00][json][\n]: the 0x00 is the
		// leaf-hash domain prefix, placed inline so the leaf can be hashed
		// straight out of the buffer with no copy. The sink line skips it.
		l.buf = append(l.buf, 0x00)
		var ok bool
		if l.buf, ok = l.enc.appendRecord(l.buf, r); !ok {
			line, err := json.Marshal(r)
			if err != nil {
				// A record that cannot marshal (would need an exotic span
				// payload) is unrepresentable in the log; count it as
				// dropped rather than poisoning the batch. Its sequence
				// number is not consumed, keeping the committed sequence
				// contiguous.
				l.countDrop()
				l.buf = l.buf[:from]
				continue
			}
			l.buf = append(l.buf, line...)
		}
		l.buf = append(l.buf, '\n')
		l.ends = append(l.ends, len(l.buf))
		l.seq++
		if kept != i {
			batch[kept] = batch[i]
		}
		kept++
	}
	if len(l.ends) == 0 {
		return
	}
	// Hash and sub-slice only now that the whole batch is rendered:
	// l.buf can no longer reallocate, so the line slices stay valid.
	l.lines, l.leaves = l.lines[:0], l.leaves[:0]
	from := 0
	for _, end := range l.ends {
		l.lines = append(l.lines, l.buf[from+1:end])                  // json + newline
		l.leaves = append(l.leaves, sha256.Sum256(l.buf[from:end-1])) // 0x00 + json
		from = end
	}
	info.Count = len(l.lines)
	root := merkleRoot(l.leaves)
	info.Root = hex.EncodeToString(root[:])
	// The chain links batch roots, not individual records: every leaf is
	// already bound by its batch's Merkle root, so chaining the roots
	// carries the same tamper evidence at one hash per group commit
	// instead of one per record.
	l.chain = chainHash(l.chain, root)
	if err := l.cfg.Sink.WriteBatch(l.segIndex, l.lines); err != nil {
		l.noteErr(err)
	}
	l.segBatches = append(l.segBatches, info)
	l.segCount += len(l.lines)

	l.ringMu.Lock()
	for i := 0; i < kept; i++ {
		l.appendRing(batch[i])
	}
	l.ringMu.Unlock()

	if m := l.cfg.Metrics; m != nil {
		m.AuditRecords.Add(uint64(len(l.lines)))
		m.AuditBatches.Inc()
		m.AuditFlushSeconds.Observe(time.Since(start))
	}
	if l.segCount >= l.cfg.SegmentRecords {
		l.sealSegment()
	}
}

// sealSegment closes the open segment with a signed manifest and
// starts the next one. An empty open segment (rotation just happened,
// or the log never saw a record) is not sealed.
func (l *Log) sealSegment() {
	if l.segCount == 0 {
		return
	}
	roots := make([]digest, len(l.segBatches))
	for i, b := range l.segBatches {
		raw, _ := hex.DecodeString(b.Root)
		copy(roots[i][:], raw)
	}
	segRoot := merkleRoot(roots)
	m := &Manifest{
		Index:     l.segIndex,
		FirstSeq:  l.segFirstSeq,
		Count:     l.segCount,
		ChainInit: hex.EncodeToString(l.chainInit[:]),
		ChainHead: hex.EncodeToString(l.chain[:]),
		PrevSeal:  l.prevSeal,
		Batches:   l.segBatches,
		Root:      hex.EncodeToString(segRoot[:]),
	}
	if err := l.cfg.Sealer.seal(m); err != nil {
		l.noteErr(err)
	}
	if err := l.cfg.Sink.SealSegment(m); err != nil {
		l.noteErr(err)
	}
	if mm := l.cfg.Metrics; mm != nil {
		mm.AuditSegmentsSealed.Inc()
	}
	l.prevSeal = m.Seal
	l.chainInit = l.chain
	l.segIndex++
	l.segFirstSeq = l.seq
	l.segCount = 0
	l.segBatches = nil
}

// noteErr retains the first sink/seal error for Close to surface.
func (l *Log) noteErr(err error) {
	if _, ok := l.sinkErr.Load().(error); !ok {
		l.sinkErr.Store(err)
	}
}
