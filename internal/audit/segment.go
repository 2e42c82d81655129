// Segment layout and sealing for the tamper-evident pipeline.
//
// The on-disk unit is a segment: a JSONL file of committed records
// (segment-NNNNNN.jsonl) plus, once the segment rotates, a manifest
// (segment-NNNNNN.manifest.json) that seals it. The manifest carries
// the per-batch Merkle roots, the segment's own root over those, the
// hash-chain boundary values, a link to the previous segment's seal,
// and an Ed25519 signature over all of it. docs/AUDIT.md specifies the
// format field by field; cmd/auditverify re-derives everything from the
// raw bytes and checks it against the manifest.

package audit

import (
	"bufio"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// genesisChain is the hash-chain value before the first batch of the
// first segment: every log starts from the same publicly known seed.
// The chain links batch Merkle roots (each record is bound by its
// batch's root, so chaining roots carries per-record tamper evidence
// at one hash per group commit).
func genesisChain() digest {
	return sha256.Sum256([]byte("gridauth/audit chain genesis v1"))
}

// Sealer signs segment manifests with an Ed25519 key.
type Sealer struct {
	priv ed25519.PrivateKey
}

// NewSealer generates a fresh ephemeral sealing key.
func NewSealer() (*Sealer, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("audit: generate seal key: %w", err)
	}
	return &Sealer{priv: priv}, nil
}

// NewSealerFromSeed builds a sealer from a 32-byte Ed25519 seed
// (deterministic; tests and key files use this).
func NewSealerFromSeed(seed []byte) (*Sealer, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("audit: seal seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	return &Sealer{priv: ed25519.NewKeyFromSeed(seed)}, nil
}

// LoadOrCreateSealer reads a hex-encoded Ed25519 seed from path,
// creating the file (mode 0600) with a fresh seed when it does not
// exist — the gatekeeper's -audit-key behaviour.
func LoadOrCreateSealer(path string) (*Sealer, error) {
	data, err := os.ReadFile(path)
	if err == nil {
		seed, err := hex.DecodeString(strings.TrimSpace(string(data)))
		if err != nil {
			return nil, fmt.Errorf("audit: seal key file %s: %w", path, err)
		}
		return NewSealerFromSeed(seed)
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	seed := make([]byte, ed25519.SeedSize)
	if _, err := rand.Read(seed); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, []byte(hex.EncodeToString(seed)+"\n"), 0o600); err != nil {
		return nil, err
	}
	return NewSealerFromSeed(seed)
}

// Public returns the verifying key embedded into sealed manifests.
func (s *Sealer) Public() ed25519.PublicKey {
	return s.priv.Public().(ed25519.PublicKey)
}

// BatchInfo summarizes one group commit inside a segment.
type BatchInfo struct {
	// FirstSeq is the sequence number of the batch's first record.
	FirstSeq uint64 `json:"firstSeq"`
	// Count is the number of records the batch committed.
	Count int `json:"count"`
	// Root is the hex Merkle root over the batch's record leaf hashes.
	Root string `json:"root"`
}

// Manifest seals one rotated segment. All digests are hex SHA-256;
// PublicKey and Seal are hex Ed25519 values.
type Manifest struct {
	// Index is the segment's position (segment-NNNNNN file names).
	Index int `json:"index"`
	// FirstSeq and Count delimit the record sequence the segment holds.
	FirstSeq uint64 `json:"firstSeq"`
	Count    int    `json:"count"`
	// ChainInit is the hash-chain value before the segment's first
	// batch (the genesis constant for segment 0, the previous segment's
	// ChainHead otherwise); ChainHead is the value after its last batch
	// root was chained in.
	ChainInit string `json:"chainInit"`
	ChainHead string `json:"chainHead"`
	// PrevSeal is the previous segment's Seal, linking manifests into
	// their own chain; empty on segment 0.
	PrevSeal string `json:"prevSeal,omitempty"`
	// Batches lists the group commits, in order.
	Batches []BatchInfo `json:"batches"`
	// Root is the Merkle root over the batch roots.
	Root string `json:"root"`
	// PublicKey is the sealing key's Ed25519 public half.
	PublicKey string `json:"publicKey"`
	// Seal is the Ed25519 signature over the manifest with Seal itself
	// blanked (canonical JSON encoding).
	Seal string `json:"seal"`
}

// sealPayload is the byte string the seal signs: the manifest's
// canonical JSON with the Seal field empty.
func (m *Manifest) sealPayload() ([]byte, error) {
	unsealed := *m
	unsealed.Seal = ""
	return json.Marshal(&unsealed)
}

// seal signs the manifest and stamps the public key.
func (s *Sealer) seal(m *Manifest) error {
	m.PublicKey = hex.EncodeToString(s.Public())
	payload, err := m.sealPayload()
	if err != nil {
		return err
	}
	m.Seal = hex.EncodeToString(ed25519.Sign(s.priv, payload))
	return nil
}

// VerifySeal checks the manifest's signature. With a nil pub the
// manifest-embedded key is used (proves internal consistency); pinning
// a key additionally proves *who* sealed it.
func (m *Manifest) VerifySeal(pub ed25519.PublicKey) error {
	if pub == nil {
		raw, err := hex.DecodeString(m.PublicKey)
		if err != nil || len(raw) != ed25519.PublicKeySize {
			return fmt.Errorf("segment %d: malformed embedded public key", m.Index)
		}
		pub = ed25519.PublicKey(raw)
	} else if hex.EncodeToString(pub) != m.PublicKey {
		return fmt.Errorf("segment %d: sealed by %s, not the pinned key", m.Index, m.PublicKey)
	}
	sig, err := hex.DecodeString(m.Seal)
	if err != nil {
		return fmt.Errorf("segment %d: malformed seal: %v", m.Index, err)
	}
	payload, err := m.sealPayload()
	if err != nil {
		return err
	}
	if !ed25519.Verify(pub, payload, sig) {
		return fmt.Errorf("segment %d: seal signature does not verify", m.Index)
	}
	return nil
}

// segmentFile and manifestFile name a segment's on-disk pieces.
func segmentFile(index int) string  { return fmt.Sprintf("segment-%06d.jsonl", index) }
func manifestFile(index int) string { return fmt.Sprintf("segment-%06d.manifest.json", index) }

// Sink receives the pipeline's committed output. Implementations need
// not be concurrency-safe: the pipeline's single writer goroutine is
// the only caller.
type Sink interface {
	// WriteBatch appends one group commit's raw JSONL lines (newline
	// included) to the open segment. The line slices alias a buffer the
	// pipeline reuses: a sink that needs the bytes after returning must
	// copy them.
	WriteBatch(segIndex int, lines [][]byte) error
	// SealSegment completes the open segment with its manifest; the
	// next WriteBatch starts segment segIndex+1.
	SealSegment(m *Manifest) error
	// Close releases the sink. The pipeline seals the open segment
	// before closing.
	Close() error
}

// DirSink writes segments and manifests into a directory — the layout
// cmd/auditverify consumes.
type DirSink struct {
	dir string
	idx int
	f   *os.File
	w   *bufio.Writer
}

// NewDirSink creates (if needed) dir and returns a sink writing into
// it. The directory must not already contain segment files: the
// pipeline's sequence numbering restarts at zero, which would break the
// chain an existing log established.
func NewDirSink(dir string) (*DirSink, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "segment-*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(matches) > 0 {
		return nil, fmt.Errorf("audit: %s already holds %d segment file(s); a pipeline cannot extend a prior log", dir, len(matches))
	}
	return &DirSink{dir: dir, idx: -1}, nil
}

// WriteBatch implements Sink. Each group commit ends with one buffered
// flush to the OS — the group-commit amortization the pipeline exists
// for (durability against process crash; an OS crash can lose the tail,
// which the chain then reports as truncation, not tampering).
func (s *DirSink) WriteBatch(segIndex int, lines [][]byte) error {
	if s.f == nil || s.idx != segIndex {
		if s.f != nil {
			return fmt.Errorf("audit: batch for segment %d while segment %d is open", segIndex, s.idx)
		}
		f, err := os.OpenFile(filepath.Join(s.dir, segmentFile(segIndex)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
		if err != nil {
			return err
		}
		s.f, s.w, s.idx = f, bufio.NewWriter(f), segIndex
	}
	for _, line := range lines {
		if _, err := s.w.Write(line); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

// SealSegment implements Sink: it closes the segment file and writes
// the manifest atomically (temp file + rename), so a manifest is either
// absent or complete.
func (s *DirSink) SealSegment(m *Manifest) error {
	if s.f != nil && s.idx == m.Index {
		if err := s.w.Flush(); err != nil {
			return err
		}
		if err := s.f.Close(); err != nil {
			return err
		}
		s.f, s.w = nil, nil
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestFile(m.Index)+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, manifestFile(m.Index)))
}

// Close implements Sink.
func (s *DirSink) Close() error {
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	err := s.f.Close()
	s.f, s.w = nil, nil
	return err
}

// MemSink retains segments in memory — the sink benchmarks and
// in-memory deployments (no -audit-dir) use. Segment bytes read back
// exactly as the directory layout stores them; sealed manifests are
// dropped, since nothing reads them back from memory. Each batch is
// kept as one exact-size blob (concatenated on read): the lines alias a
// pipeline-reused buffer and must be copied anyway, and a single
// right-sized allocation per commit avoids the repeated grow-and-move
// of appending into one ever-larger segment buffer.
type MemSink struct {
	mu       sync.Mutex
	segments map[int][][]byte // per-batch blobs, in commit order
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink {
	return &MemSink{segments: make(map[int][][]byte)}
}

// WriteBatch implements Sink.
func (s *MemSink) WriteBatch(segIndex int, lines [][]byte) error {
	n := 0
	for _, line := range lines {
		n += len(line)
	}
	blob := make([]byte, 0, n)
	for _, line := range lines {
		blob = append(blob, line...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segments[segIndex] = append(s.segments[segIndex], blob)
	return nil
}

// SealSegment implements Sink; the manifest is not retained.
func (s *MemSink) SealSegment(*Manifest) error { return nil }

// Close implements Sink.
func (s *MemSink) Close() error { return nil }

// Segment returns the raw JSONL bytes of one retained segment, or nil
// when no batch has been written to it.
//
//authlint:ignore deadexport the conformance replays (newConfEnv in conformance_test.go) read committed segments back with it
func (s *MemSink) Segment(index int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	blobs, ok := s.segments[index]
	if !ok {
		return nil
	}
	n := 0
	for _, b := range blobs {
		n += len(b)
	}
	out := make([]byte, 0, n)
	for _, b := range blobs {
		out = append(out, b...)
	}
	return out
}
