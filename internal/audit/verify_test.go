package audit

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sealedDir writes a fresh multi-segment sealed log into a temp
// directory and returns it with the sealing key's public half.
func sealedDir(t *testing.T, records int) (string, ed25519.PublicKey) {
	t.Helper()
	return sealedDirOf(t, records, 4, 10) // several rotations for a few dozen records
}

// sealedDirOf is sealedDir with the pipeline's batch and segment sizes.
func sealedDirOf(t testing.TB, records, batch, segment int) (string, ed25519.PublicKey) {
	t.Helper()
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed := bytes.Repeat([]byte{0x42}, ed25519.SeedSize)
	sealer, err := NewSealerFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	log, err := NewPipeline(Config{
		Sink:           sink,
		Sealer:         sealer,
		Batch:          batch,
		SegmentRecords: segment,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		log.Append(Record{
			Subject: "/O=Grid/CN=Kate",
			Action:  fmt.Sprintf("start-%d", i),
			PDP:     "p",
			Effect:  "permit",
			Reason:  "ok",
			Elapsed: time.Duration(i) * time.Microsecond,
		})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, sealer.Public()
}

func TestVerifyDirAcceptsIntactLog(t *testing.T) {
	dir, pub := sealedDir(t, 35)
	rep, err := VerifyDir(dir, nil)
	if err != nil {
		t.Fatalf("intact log rejected: %v", err)
	}
	if rep.Records+rep.Open != 35 {
		t.Fatalf("verified %d+%d records, wrote 35", rep.Records, rep.Open)
	}
	sealed := 0
	for _, s := range rep.Segments {
		if s.Sealed {
			sealed++
		}
	}
	if sealed < 3 {
		t.Fatalf("35 records at threshold 10 sealed only %d segment(s)", sealed)
	}
	// Pinning the real key passes; pinning any other key fails.
	if _, err := VerifyDir(dir, pub); err != nil {
		t.Fatalf("pinned verification rejected the sealing key: %v", err)
	}
	other := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x7}, ed25519.SeedSize)).Public().(ed25519.PublicKey)
	if _, err := VerifyDir(dir, other); err == nil {
		t.Fatal("a foreign pinned key verified the seals")
	}
}

func TestVerifyDirDetectsFlippedByte(t *testing.T) {
	dir, _ := sealedDir(t, 35)
	path := filepath.Join(dir, segmentFile(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one letter inside a record's subject — the JSON stays valid,
	// only the content lies.
	tampered := bytes.Replace(data, []byte("CN=Kate"), []byte("CN=Kurt"), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("test subject not found in segment")
	}
	if err := os.WriteFile(path, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyDir(dir, nil)
	if err == nil {
		t.Fatal("a flipped byte in a sealed segment verified clean")
	}
	if !strings.Contains(err.Error(), "segment 1") {
		t.Fatalf("tamper not localized to segment 1: %v", err)
	}
}

// Segments are verified concurrently, but the error reported is the
// lowest bad segment's, the one a walk in index order meets first, even
// when a later fault is quicker to find.
func TestVerifyDirReportsLowestBadSegment(t *testing.T) {
	dir, _ := sealedDir(t, 95)
	replace := func(file, old, new string) {
		t.Helper()
		path := filepath.Join(dir, file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tampered := bytes.Replace(data, []byte(old), []byte(new), 1)
		if bytes.Equal(tampered, data) {
			t.Fatalf("%q not found in %s", old, file)
		}
		if err := os.WriteFile(path, tampered, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	replace(segmentFile(2), "CN=Kate", "CN=Kurt")
	_, want := VerifyDir(dir, nil)
	if want == nil || !strings.HasPrefix(want.Error(), "segment 2: ") {
		t.Fatalf("a tampered segment 2 = %v, want its error", want)
	}
	// A broken seal is found before any record is read, and a missing
	// manifest before any segment is verified.
	m, err := loadManifest(filepath.Join(dir, manifestFile(5)))
	if err != nil {
		t.Fatal(err)
	}
	replace(manifestFile(5), fmt.Sprintf(`"count": %d`, m.Count), fmt.Sprintf(`"count": %d`, m.Count-1))
	if err := os.Remove(filepath.Join(dir, manifestFile(7))); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		_, err := VerifyDir(dir, nil)
		runtime.GOMAXPROCS(prev)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("GOMAXPROCS=%d: segments 2, 5 and 7 bad = %v, want segment 2's %v", procs, err, want)
		}
	}
}

// BenchmarkVerifyDir verifies a sealed log of 20 segments of 1 000
// records; run it with -cpu 1,2 to see the segments verified side by
// side.
func BenchmarkVerifyDir(b *testing.B) {
	const records = 20_000
	dir, _ := sealedDirOf(b, records, 64, 1_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := VerifyDir(dir, nil)
		if err != nil || rep.Records != records {
			b.Fatalf("VerifyDir = %v records, %v", rep, err)
		}
	}
}

func TestVerifyDirDetectsRemovedRecord(t *testing.T) {
	dir, _ := sealedDir(t, 35)
	path := filepath.Join(dir, segmentFile(0))
	lines, err := readSegmentLines(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, line := range lines {
		if i == 3 { // excise one record
			continue
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir, nil); err == nil {
		t.Fatal("a spliced-out record verified clean")
	}
}

func TestVerifyDirDetectsManifestTamper(t *testing.T) {
	dir, _ := sealedDir(t, 35)
	path := filepath.Join(dir, manifestFile(0))
	m, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite history: claim the segment holds one record fewer. The
	// seal was computed over the honest manifest, so the signature check
	// must fail.
	m.Count--
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(fmt.Sprintf("\"count\": %d", m.Count+1)), []byte(fmt.Sprintf("\"count\": %d", m.Count)), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("count field not found in manifest")
	}
	if err := os.WriteFile(path, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyDir(dir, nil)
	if err == nil {
		t.Fatal("an edited manifest verified clean")
	}
	if !strings.Contains(err.Error(), "seal") {
		t.Fatalf("manifest edit not caught by the seal check: %v", err)
	}
}

func TestVerifyDirTrailingOpenSegment(t *testing.T) {
	dir, _ := sealedDir(t, 35)
	idxs, err := segmentIndexes(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := idxs[len(idxs)-1]
	// Remove the last manifest: the pipeline might have been killed
	// before Close. The segment is reported open, not an error.
	if err := os.Remove(filepath.Join(dir, manifestFile(last))); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir, nil)
	if err != nil {
		t.Fatalf("trailing open segment treated as tampering: %v", err)
	}
	if rep.Open == 0 {
		t.Fatal("open segment's records not reported")
	}
	// A missing manifest anywhere else is an error: segments cannot
	// silently lose their seal mid-log.
	if err := os.Remove(filepath.Join(dir, manifestFile(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir, nil); err == nil {
		t.Fatal("mid-log missing manifest verified clean")
	}
}

func TestProveInclusionRoundTrip(t *testing.T) {
	dir, pub := sealedDir(t, 35)
	rep, err := VerifyDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < uint64(rep.Records); seq++ {
		proof, err := ProveInclusion(dir, seq, pub)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if proof.Seq != seq {
			t.Fatalf("proof addresses seq %d, asked for %d", proof.Seq, seq)
		}
		if want := fmt.Sprintf("\"action\":\"start-%d\"", seq); !strings.Contains(proof.Record, want) {
			t.Fatalf("seq %d: proof carries the wrong record: %s", seq, proof.Record)
		}
	}
	// Beyond the sealed range there is nothing to prove.
	if _, err := ProveInclusion(dir, uint64(rep.Records+rep.Open), pub); err == nil {
		t.Fatal("inclusion proven for a sequence number past the log")
	}
}

func TestProveInclusionDetectsTamperedRecord(t *testing.T) {
	dir, _ := sealedDir(t, 35)
	path := filepath.Join(dir, segmentFile(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte("start-2"), []byte("start-9"), 1)
	if err := os.WriteFile(path, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ProveInclusion(dir, 2, nil); err == nil {
		t.Fatal("inclusion proven for a tampered record")
	}
}

// seqLines are committed lines as written, and tampered: bad JSON, a
// missing, repeated, case-variant or escaped seq key, seq values
// json.Unmarshal refuses, escapes and nesting in other members.
var seqLines = []string{
	`{"seq":5,"time":"2003-06-01T12:00:00Z","subject":"/O=Grid/CN=U","action":"start","pdp":"p","effect":"permit","elapsedNanos":0}`,
	`{"time":"x","reason":"no policy statement grants \"reboot\" to /O=Grid/CN=U (default deny)","elapsedNanos":-12}`,
	`{"seq":7,"reason":"clause (count<=64) not satisfied","spans":[{"pdp":"a","effect":"deny","elapsedNanos":1.5e3,"retries":1}]}`,
	`{"seq":5,"spans":[]}`, `{"seq":5,"spans":[[],{},null,true,false,-0,0.5,1E+2,"\/\b\f\n\r\t\\"]}`,
	`{"seq":5,"seq":6}`, `{"SEQ":5}`, `{"Seq":5,"seq":6}`, `{"seq":6,"Seq":5}`, `{"seq":5}`, "{\"ſeq\":5}",
	`{"seq":-1}`, `{"seq":1.5}`, `{"seq":"5"}`, `{"seq":null}`, `{"seq":1e2}`, `{"seq":01}`, `{"seq":0}`,
	`{"seq":18446744073709551615}`, `{"seq":18446744073709551616}`,
	`{"seq":5,}`, `{"seq":5`, ``, `null`, `[]`, `5`, `{}`, `{"seq":5} `, ` {"seq":5}`, `{"seq" : 5}`, `{"seq":5}{"seq":6}`,
	`{"seq":5,"reason":"a\qb"}`, `{"seq":5,"reason":"a\u00zz"}`, "{\"seq\":5,\"reason\":\"a\tb\"}", "{\"seq\":5,\"reason\":\"\xff\xc3\"}",
	`{"seq":5,"time":tru}`, `{"seq":5,"time":nul}`, `{"seq":5,"x":1}`, `{"seq":5,"elapsedNanos":-}`, `{"seq":5,"elapsedNanos":1.}`,
	`{"seq":5,"elapsedNanos":1e}`, `{"seq":5,"spans":[1,]}`, `{"seq":5,"spans":[{"a" 1}]}`, `{"seq":5,"spans":{"a":1,"a":2}}`,
	`{"seq":5,"spans":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`,
	`{"seq":5,"spans":` + strings.Repeat("[", 20) + strings.Repeat("]", 20) + `}`,
}

// TestRecordSeqMatchesUnmarshal: recordSeq accepts and refuses exactly
// the lines json.Unmarshal does, with the same seq, and the lines the
// pipeline writes take the scan.
func TestRecordSeqMatchesUnmarshal(t *testing.T) {
	for _, line := range seqLines {
		checkRecordSeq(t, []byte(line))
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "sealed", segmentFile(0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(fixture, []byte("\n")), []byte("\n")) {
		checkRecordSeq(t, line)
		if _, ok := scanSeq(line); !ok {
			t.Errorf("a committed line missed the scan: %s", line)
		}
	}
}

func FuzzRecordSeq(f *testing.F) {
	for _, line := range seqLines {
		f.Add([]byte(line))
	}
	f.Fuzz(checkRecordSeq)
}

func checkRecordSeq(t *testing.T, line []byte) {
	var rec struct {
		Seq uint64 `json:"seq"`
	}
	wantErr := json.Unmarshal(line, &rec)
	seq, err := recordSeq(line)
	if (err == nil) != (wantErr == nil) || (err == nil && seq != rec.Seq) {
		t.Errorf("%q: recordSeq = %d, %v; json.Unmarshal = %d, %v", line, seq, err, rec.Seq, wantErr)
	}
}
