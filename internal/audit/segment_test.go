package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestManifestMarshalMatchesEncodingJSON pins the manifest encoder to
// json.Marshal, and DirSink's manifest file to json.MarshalIndent, for
// a manifest of 10 000 batches and for field values json.Marshal
// escapes.
func TestManifestMarshalMatchesEncodingJSON(t *testing.T) {
	big := &Manifest{Index: 7, FirstSeq: 1 << 40, Count: 640_000, ChainInit: "00ff", ChainHead: "ff00",
		PrevSeal: "abcd", Root: "r", PublicKey: "k", Seal: "s"}
	for i := 0; i < 10_000; i++ {
		big.Batches = append(big.Batches, BatchInfo{FirstSeq: big.FirstSeq + uint64(64*i), Count: 64,
			Root: fmt.Sprintf("%064x", i)})
	}
	odd := `q"uo\te <&> ` + "\x00\x1f\x7f café   \xff"
	for name, m := range map[string]*Manifest{
		"10000 batches": big,
		"zero":          {},
		"empty batches": {Batches: []BatchInfo{}, PrevSeal: ""},
		"odd strings": {Index: -1, Count: -2, ChainInit: odd, ChainHead: odd, PrevSeal: odd, Root: odd,
			PublicKey: odd, Seal: odd, Batches: []BatchInfo{{Count: -3, Root: odd}}},
	} {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.marshal(); !bytes.Equal(got, want) {
			t.Errorf("%s: marshal differs from json.Marshal:\n got %.300q\nwant %.300q", name, got, want)
		}
		unsealed := *m
		unsealed.Seal = ""
		if want, _ := json.Marshal(&unsealed); !bytes.Equal(m.sealPayload(), want) {
			t.Errorf("%s: seal payload differs from json.Marshal with the seal blanked", name)
		}

		dir := t.TempDir()
		sink, err := NewDirSink(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.SealSegment(m); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(dir, manifestFile(m.Index)))
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, append(indented, '\n')) {
			t.Errorf("%s: manifest file differs from json.MarshalIndent", name)
		}
	}
}

// TestSealedBeforeAppendEncoderVerifies: testdata/sealed was written and
// sealed when manifests and seal payloads were rendered by
// encoding/json. It still verifies, under its sealing key too.
func TestSealedBeforeAppendEncoderVerifies(t *testing.T) {
	sealer, err := NewSealerFromSeed(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(filepath.Join("testdata", "sealed"), sealer.Public())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 30 || len(rep.Segments) != 3 || rep.Open != 0 {
		t.Errorf("report %+v, want 30 records in 3 sealed segments", rep)
	}
}
