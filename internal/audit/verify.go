// Offline verification of a segment directory — the library behind
// cmd/auditverify. Everything is re-derived from the raw bytes: leaf
// hashes from the JSONL lines, the hash chain from genesis (or the
// previous segment's head), batch Merkle roots from the leaves, the
// segment root from the batch roots, and the seal signature from the
// manifest bytes. A single flipped bit anywhere in a sealed segment
// changes a leaf, which changes its batch root, the segment root, the
// chain head and the sealed payload — the verifier reports the first
// divergence it meets. docs/AUDIT.md walks through a worked tamper
// case.

package audit

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gridauth/internal/jsonwire"
)

// SegmentReport summarizes one verified segment.
type SegmentReport struct {
	Index   int
	Records int
	Batches int
	Sealed  bool // false only for a trailing open segment
}

// Report is the result of a successful VerifyDir.
type Report struct {
	Dir      string
	Segments []SegmentReport
	Records  int // total records across sealed segments
	Open     int // records in a trailing unsealed segment, if any
}

// readSegmentLines returns a segment file's JSONL lines, newline
// stripped.
func readSegmentLines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := make([][]byte, 0, bytes.Count(data, []byte{'\n'}))
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return nil, fmt.Errorf("%s: truncated final line (no newline)", filepath.Base(path))
		}
		lines = append(lines, data[:i])
		data = data[i+1:]
	}
	return lines, nil
}

// loadManifest parses one manifest file.
func loadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", filepath.Base(path), err)
	}
	return &m, nil
}

// recordKeys are the member names a Record's JSON can carry; a key's
// index is its bit for jsonwire.ParseObject.
var recordKeys = [...]string{"seq", "time", "requestId", "subject", "action", "jobId",
	"jobOwner", "pdp", "effect", "source", "reason", "elapsedNanos", "spans"}

// recordSeq reads the seq of a committed line as json.Unmarshal into
// struct{ Seq uint64 `json:"seq"` } reads it, and fails where that
// fails: a line without a seq reads as zero, as a fresh record would.
func recordSeq(line []byte) (uint64, error) {
	if seq, ok := scanSeq(line); ok {
		return seq, nil
	}
	var rec struct {
		Seq uint64 `json:"seq"`
	}
	err := json.Unmarshal(line, &rec)
	return rec.Seq, err
}

// scanSeq is recordSeq's scan of the common line, a compact object of
// Record's members with a plain seq. It reports false on anything else
// — whitespace, an escaped, unknown, case-variant or repeated key, a seq
// that is not a plain unsigned integer — which json.Unmarshal then reads.
func scanSeq(line []byte) (uint64, bool) {
	var seq uint64
	end, ok := jsonwire.ParseObject(line, 0, func(key []byte, i int) (bit, next int, ok bool) {
		for bit, k := range recordKeys {
			if string(key) != k {
				continue
			}
			if bit == 0 {
				seq, next, ok = jsonwire.ParseUint(line, i, math.MaxUint64)
			} else {
				next, ok = jsonwire.SkipValue(line, i)
			}
			return bit, next, ok
		}
		return 0, 0, false
	})
	return seq, ok && end == len(line)
}

// segmentIndexes lists the segment indexes present in dir, sorted.
func segmentIndexes(dir string) ([]int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "segment-*.jsonl"))
	if err != nil {
		return nil, err
	}
	var idx []int
	for _, m := range matches {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(m), "segment-%06d.jsonl", &i); err == nil {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// verifySegment re-derives one sealed segment against its manifest.
// chainIn is the expected ChainInit and prevSeal the preceding seal.
func verifySegment(dir string, m *Manifest, chainIn digest, prevSeal string, pin ed25519.PublicKey) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("segment %d: %s", m.Index, fmt.Sprintf(format, args...))
	}
	if m.ChainInit != hex.EncodeToString(chainIn[:]) {
		return fail("chainInit %s does not continue the preceding chain head %s", m.ChainInit, hex.EncodeToString(chainIn[:]))
	}
	if m.PrevSeal != prevSeal {
		return fail("prevSeal does not match the preceding segment's seal")
	}
	if err := m.VerifySeal(pin); err != nil {
		return err
	}
	lines, err := readSegmentLines(filepath.Join(dir, segmentFile(m.Index)))
	if err != nil {
		return err
	}
	if len(lines) != m.Count {
		return fail("holds %d records but the manifest seals %d", len(lines), m.Count)
	}
	chain := chainIn
	leaves := make([]digest, len(lines))
	wantSeq := m.FirstSeq
	for i, line := range lines {
		seq, err := recordSeq(line)
		if err != nil {
			return fail("record %d: %v", i, err)
		}
		if seq != wantSeq {
			return fail("record %d carries seq %d, want %d (reorder or splice)", i, seq, wantSeq)
		}
		wantSeq++
		leaves[i] = leafHash(line)
	}
	// Batch partition: contiguous, in order, covering every record.
	off := 0
	roots := make([]digest, len(m.Batches))
	for bi, b := range m.Batches {
		if b.FirstSeq != m.FirstSeq+uint64(off) {
			return fail("batch %d firstSeq %d does not continue the partition", bi, b.FirstSeq)
		}
		if b.Count <= 0 || off+b.Count > len(leaves) {
			return fail("batch %d count %d overruns the segment", bi, b.Count)
		}
		root := merkleRoot(leaves[off : off+b.Count])
		if hex.EncodeToString(root[:]) != b.Root {
			return fail("batch %d (seq %d..%d): recomputed Merkle root %s != manifest %s",
				bi, b.FirstSeq, b.FirstSeq+uint64(b.Count)-1, hex.EncodeToString(root[:]), b.Root)
		}
		roots[bi] = root
		chain = chainHash(chain, root)
		off += b.Count
	}
	if off != len(leaves) {
		return fail("batches cover %d of %d records", off, len(leaves))
	}
	segRoot := merkleRoot(roots)
	if hex.EncodeToString(segRoot[:]) != m.Root {
		return fail("recomputed segment root %s != manifest %s", hex.EncodeToString(segRoot[:]), m.Root)
	}
	if m.ChainHead != hex.EncodeToString(chain[:]) {
		return fail("recomputed chain head %s != manifest %s", hex.EncodeToString(chain[:]), m.ChainHead)
	}
	return nil
}

// VerifyDir verifies every sealed segment in dir: hash-chain
// continuity from genesis, per-batch and per-segment Merkle roots,
// record sequence numbering, manifest-to-manifest seal links, and the
// Ed25519 seal of each manifest. A non-nil pin additionally requires
// every seal to be by that key. A trailing segment without a manifest
// (the pipeline is still running, or was killed before Close) is
// reported as open, not an error; a missing manifest anywhere else is
// an error.
//
// Sealed segments are verified concurrently, up to GOMAXPROCS at a
// time. Each is checked against the chain head and seal its
// predecessor's manifest claims, and the error reported is the one of
// the lowest segment that fails. That is the error a walk in index
// order meets: until a segment fails, every claim of the manifests
// before it was recomputed and found equal.
func VerifyDir(dir string, pin ed25519.PublicKey) (*Report, error) {
	idxs, err := segmentIndexes(dir)
	if err != nil {
		return nil, err
	}
	if len(idxs) == 0 {
		return nil, fmt.Errorf("%s: no segment files", dir)
	}
	// The manifests in order, up to the first segment that cannot be
	// verified at all; its fault (stop) is reported after the errors of
	// the sealed segments before it.
	var (
		ms   []*Manifest
		stop error
		open bool // the last segment has no manifest
	)
	for pos, idx := range idxs {
		if idx != pos {
			stop = fmt.Errorf("%s: segment %d missing (found index %d)", dir, pos, idx)
			break
		}
		mPath := filepath.Join(dir, manifestFile(idx))
		if _, err := os.Stat(mPath); os.IsNotExist(err) {
			if pos == len(idxs)-1 {
				open = true
			} else {
				stop = fmt.Errorf("segment %d: manifest missing but later segments exist", idx)
			}
			break
		}
		m, err := loadManifest(mPath)
		if err != nil {
			stop = err
			break
		}
		if m.Index != idx {
			stop = fmt.Errorf("segment %d: manifest claims index %d", idx, m.Index)
			break
		}
		ms = append(ms, m)
	}
	if err := verifySegments(dir, ms, pin); err != nil {
		return nil, err
	}
	if stop != nil {
		return nil, stop
	}
	rep := &Report{Dir: dir}
	for _, m := range ms {
		rep.Records += m.Count
		rep.Segments = append(rep.Segments, SegmentReport{Index: m.Index, Records: m.Count, Batches: len(m.Batches), Sealed: true})
	}
	if open {
		idx := idxs[len(idxs)-1]
		lines, err := readSegmentLines(filepath.Join(dir, segmentFile(idx)))
		if err != nil {
			return nil, err
		}
		rep.Open = len(lines)
		rep.Segments = append(rep.Segments, SegmentReport{Index: idx, Records: len(lines)})
	}
	return rep, nil
}

// verifySegments runs verifySegment on every manifest of ms, up to
// GOMAXPROCS at a time, and returns the error of the lowest segment
// that fails. Segment i is checked against ms[i-1]'s claimed chain head
// and seal (genesis and no seal for the first): if ms[i-1] verifies,
// those are exactly what walking the chain would have carried to i; if
// it does not, its error comes first and i's is never reported.
func verifySegments(dir string, ms []*Manifest, pin ed25519.PublicKey) error {
	errs := make([]error, len(ms))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), len(ms)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ms) {
					return
				}
				chainIn, prevSeal := genesisChain(), ""
				if i > 0 {
					// A head that is not 32 bytes of hex fails ms[i-1]'s
					// own check, so chainIn's value then does not matter.
					chainIn, prevSeal = digest{}, ms[i-1].Seal
					if h := ms[i-1].ChainHead; len(h) == hex.EncodedLen(len(chainIn)) {
						_, _ = hex.Decode(chainIn[:], []byte(h))
					}
				}
				errs[i] = verifySegment(dir, ms[i], chainIn, prevSeal, pin)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// InclusionProof proves that the record with a given sequence number is
// included in a sealed, verified segment: the Merkle path from the
// record's leaf to its batch root, plus the path from the batch root to
// the sealed segment root.
type InclusionProof struct {
	Seq        uint64      `json:"seq"`
	Segment    int         `json:"segment"`
	Record     string      `json:"record"` // the raw JSONL line
	LeafSteps  []ProofStep `json:"leafSteps"`
	BatchRoot  string      `json:"batchRoot"`
	BatchSteps []ProofStep `json:"batchSteps"`
	Root       string      `json:"root"` // the sealed segment root
}

// ProveInclusion builds and checks an inclusion proof for seq. The
// segment holding seq must be sealed; the manifest's seal is verified
// (against pin when non-nil) so the proof anchors in a signature, not
// just in local bytes.
func ProveInclusion(dir string, seq uint64, pin ed25519.PublicKey) (*InclusionProof, error) {
	idxs, err := segmentIndexes(dir)
	if err != nil {
		return nil, err
	}
	for _, idx := range idxs {
		mPath := filepath.Join(dir, manifestFile(idx))
		if _, err := os.Stat(mPath); os.IsNotExist(err) {
			continue
		}
		m, err := loadManifest(mPath)
		if err != nil {
			return nil, err
		}
		if seq < m.FirstSeq || seq >= m.FirstSeq+uint64(m.Count) {
			continue
		}
		if err := m.VerifySeal(pin); err != nil {
			return nil, err
		}
		lines, err := readSegmentLines(filepath.Join(dir, segmentFile(idx)))
		if err != nil {
			return nil, err
		}
		if len(lines) != m.Count {
			return nil, fmt.Errorf("segment %d: holds %d records but the manifest seals %d", idx, len(lines), m.Count)
		}
		// Locate the batch holding seq.
		bi := -1
		for i, b := range m.Batches {
			if seq >= b.FirstSeq && seq < b.FirstSeq+uint64(b.Count) {
				bi = i
				break
			}
		}
		if bi < 0 {
			return nil, fmt.Errorf("segment %d: no batch covers seq %d", idx, seq)
		}
		b := m.Batches[bi]
		first := int(b.FirstSeq - m.FirstSeq)
		leaves := make([]digest, b.Count)
		for i := 0; i < b.Count; i++ {
			leaves[i] = leafHash(lines[first+i])
		}
		li := int(seq - b.FirstSeq)
		leafSteps := merkleProof(leaves, li)
		if got := merkleVerify(leaves[li], leafSteps); hex.EncodeToString(got[:]) != b.Root {
			return nil, fmt.Errorf("seq %d: leaf path arrives at %s, batch root is %s (record or batch tampered)",
				seq, hex.EncodeToString(got[:]), b.Root)
		}
		roots := make([]digest, len(m.Batches))
		for i, bb := range m.Batches {
			raw, err := hex.DecodeString(bb.Root)
			if err != nil || len(raw) != len(roots[i]) {
				return nil, fmt.Errorf("segment %d: malformed batch root %d", idx, i)
			}
			copy(roots[i][:], raw)
		}
		batchSteps := merkleProof(roots, bi)
		if got := merkleVerify(roots[bi], batchSteps); hex.EncodeToString(got[:]) != m.Root {
			return nil, fmt.Errorf("seq %d: batch path arrives at %s, sealed root is %s", seq, hex.EncodeToString(got[:]), m.Root)
		}
		return &InclusionProof{
			Seq:        seq,
			Segment:    idx,
			Record:     string(lines[seq-m.FirstSeq]),
			LeafSteps:  leafSteps,
			BatchRoot:  b.Root,
			BatchSteps: batchSteps,
			Root:       m.Root,
		}, nil
	}
	return nil, fmt.Errorf("no sealed segment holds seq %d", seq)
}
