package gram

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// checkDecode holds ReadMessage to its oracle on one frame: it must
// fail exactly when json.Unmarshal fails, with ErrMalformedMessage, and
// otherwise build the same Message — whichever parser took the frame
// and whether or not it fitted the reader's buffer.
func checkDecode(t *testing.T, frame []byte) {
	t.Helper()
	if i := bytes.IndexByte(frame, '\n'); i >= 0 {
		frame = frame[:i] // ReadMessage frames by newline
	}
	line := append(append([]byte(nil), frame...), '\n')
	var want Message
	wantErr := json.Unmarshal(line, &want)
	for _, size := range []int{16, 4096} {
		got, err := ReadMessage(bufio.NewReaderSize(bytes.NewReader(line), size))
		if wantErr != nil {
			if !errors.Is(err, ErrMalformedMessage) {
				t.Fatalf("buffer %d: frame %q: ReadMessage = %v, %v; json.Unmarshal refuses it: %v", size, line, got, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("buffer %d: frame %q: ReadMessage refuses (%v) what json.Unmarshal accepts", size, line, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("buffer %d: frame %q:\n ReadMessage    %+v (error %+v)\n json.Unmarshal %+v (error %+v)", size, line, got, got.Err, &want, want.Err)
		}
	}
}

// checkEncode holds WriteMessage to its oracle on one Message: the
// bytes are json.Marshal's, they read back as json.Unmarshal reads
// them, and an all-ASCII message never leaves the fast parser.
func checkEncode(t *testing.T, m *Message) {
	t.Helper()
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteMessage wrote\n %q\njson.Marshal gives\n %q", clip(buf.Bytes()), clip(want))
	}
	if len(want) > MaxMessageSize {
		if _, err := ReadMessage(bufio.NewReader(&buf)); !errors.Is(err, ErrMessageTooLarge) {
			t.Fatalf("%d-byte frame: ReadMessage = %v, want ErrMessageTooLarge", len(want), err)
		}
		return
	}
	checkDecode(t, want)
	ascii := m.Err == nil || m.Err.Code >= 0
	for _, c := range want {
		ascii = ascii && c < 0x80
	}
	if _, ok := parseMessage(want); ok != ascii {
		t.Fatalf("parseMessage took an emitted frame: %v, want %v: %q", ok, ascii, clip(want))
	}
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return append(append([]byte(nil), b[:300]...), "..."...)
	}
	return b
}

// fuzzMessage spreads four strings over Message's twelve string fields.
func fuzzMessage(a, b, c, d string, id uint64, code int, withErr bool) *Message {
	m := &Message{
		Type: a, ID: id, RSL: b, Account: c, JobContact: d,
		Action: b, Signal: c, SignalArg: d,
		State: c, Owner: d, Detail: a, Contact: b,
	}
	if withErr {
		m.Err = &ProtoError{Code: Code(code), Source: c, Message: d}
	}
	return m
}

// legacyFrame is what a peer with its own JSON library may send: keys
// reordered and oddly cased, whitespace, a null, a field this version
// does not know, an escaped key and an astral character as a surrogate
// pair. All of it is json.Unmarshal's to read.
const legacyFrame = `{ "id" : 7, "Type": "manage-request", "priority": [1, {"x": null}], ` +
	`"signal": null, "jobContact": "gram:\/\/h\/job\/1", "acti\u006fn": "status", "detail": "\ud83d\ude00" }`

func conformanceFrames(t testing.TB) [][]byte {
	data, err := os.ReadFile("testdata/conformance_frames.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(data), []byte("\n"))
}

// FuzzMessageCodec is the differential test of the frame codec against
// encoding/json: arbitrary bytes through the decoder, arbitrary
// Messages through the encoder and back.
func FuzzMessageCodec(f *testing.F) {
	for _, frame := range conformanceFrames(f) {
		f.Add(frame, "job-request", "&(executable=sim)(count<4)", "bliu", "gram://h/job/1", uint64(1), 2, true)
	}
	f.Add([]byte(legacyFrame), `q"uo\te`, "<&>", "\x00\x1f\x7f\b\f\n\r\t", "\u2028\u2029\u00e9\U0001F600", uint64(1<<63), -3, true)
	f.Add([]byte(`{"type":"x","type":"y"}`), "\xff\xfe", "a\xc3", "\xed\xa0\x80", "", uint64(0), 0, false)
	f.Add([]byte(`{"id":18446744073709551616}`), "", "", "", "", ^uint64(0), 1<<62, true)
	f.Add([]byte(`{"id":01,"error":{"code":-1}}`), "", "", "", "", uint64(0), 0, true)
	f.Add([]byte(`{"error":{"code":1,"code":2},"owner":"\ud800"}`), "", "", "", "", uint64(0), 0, false)
	f.Add([]byte(`{"type":"a"} `), "", "", "", "", uint64(0), 0, false)
	f.Add([]byte(`{}`), "", "", "", "", uint64(0), 0, false)
	f.Fuzz(func(t *testing.T, frame []byte, a, b, c, d string, id uint64, code int, withErr bool) {
		checkDecode(t, frame)
		checkEncode(t, fuzzMessage(a, b, c, d, id, code, withErr))
	})
}

// TestMessageCodecEdges runs the differential checks over the cases too
// big or too particular to leave to the fuzzer's luck.
func TestMessageCodecEdges(t *testing.T) {
	for _, frame := range conformanceFrames(t) {
		checkDecode(t, frame)
		if _, ok := parseMessage(append(append([]byte(nil), frame...), '\n')); !ok {
			t.Errorf("conformance frame left the fast parser: %s", frame)
		}
	}
	if _, ok := parseMessage([]byte(legacyFrame + "\n")); ok {
		t.Error("the legacy frame was taken by the fast parser")
	}
	for _, frame := range []string{
		legacyFrame,
		`{"type":"job-reply","contact":"\u0041\u00e9\u20ac\/\b\f\n\r\t\"\\"}`,
		`{"type":"\uD83D\uDE00"}`, `{"type":"\ud83d"}`, `{"type":"\ude00x"}`,
		`{"type":"caf` + "\xc3\xa9" + `"}`, `{"type":"` + "\xff" + `"}`, `{"type":"` + "\x01" + `"}`,
		`{"type":"a","TYPE":"b"}`, `{"Type":"a"}`, `{"type":null}`, `{"type":7}`, `{"id":"7"}`,
		`{"id":0}`, `{"id":00}`, `{"id":-0}`, `{"id":1.0}`, `{"id":1e2}`,
		`{"id":18446744073709551615}`, `{"id":18446744073709551616}`,
		`{"error":{}}`, `{"error":null}`, `{"error":{"code":9223372036854775807}}`,
		`{"error":{"code":9223372036854775808}}`, `{"error":{"code":-2}}`,
		`{"error":{"code":1},"error":{"source":"s"}}`, `{"error":{"code":1,"extra":2}}`,
		`{"type":"a",}`, `{"type":"a"`, `{"type":"a"}}`, `{"type":"a"}x`, `{"type":"a"}` + "\r", ` {"type":"a"}`,
		`{"type":"a\"}`, `{"type":"a\u12"}`, `{"type":"a\u12g4"}`, `{"type":"a\x"}`, `{"type"}`, `{"type":}`,
		`[]`, `"type"`, `null`, `7`, ``, `{`, `{"`, `{"type":"`,
	} {
		checkDecode(t, []byte(frame))
	}

	nasty := "q\"uo\\te <&> \x00\x1f\x7f\b\f\n\r\t \u2028\u2029 caf\u00e9 \U0001F600 \xff\xc3 \xed\xa0\x80"
	checkEncode(t, fuzzMessage(nasty, nasty, nasty, nasty, ^uint64(0), -1, true))
	checkEncode(t, fuzzMessage("", "", "", "", 0, 0, false))
	checkEncode(t, fuzzMessage("", "", "", "", 0, 0, true))
	// An RSL that overflows every reader buffer yet fits a frame, and
	// one that no longer does.
	checkEncode(t, &Message{Type: MsgJobRequest, ID: 3, RSL: "&" + strings.Repeat("(a=b)", (MaxMessageSize-64)/5)})
	checkEncode(t, &Message{Type: MsgJobRequest, ID: 3, RSL: strings.Repeat("x", MaxMessageSize)})
}

// TestCodecCoversEveryField fails when Message or ProtoError gains a
// field the hand-written codec does not know: every field set, by
// reflection, must still encode as json.Marshal does and stay on the
// fast parser.
func TestCodecCoversEveryField(t *testing.T) {
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.String:
				f.SetString(v.Type().Field(i).Name)
			case reflect.Uint64, reflect.Int:
				f.Set(reflect.ValueOf(7).Convert(f.Type()))
			case reflect.Pointer:
				if f.Type() != reflect.TypeOf(&ProtoError{}) {
					t.Fatalf("field %s: the codec has no case for %s", v.Type().Field(i).Name, f.Type())
				}
			default:
				t.Fatalf("field %s: the codec has no case for %s", v.Type().Field(i).Name, f.Type())
			}
		}
	}
	m := &Message{Err: &ProtoError{}}
	fill(reflect.ValueOf(m).Elem())
	fill(reflect.ValueOf(m.Err).Elem())
	checkEncode(t, m)
}

// manage-reuse's two commonest frames.
var (
	benchRequest = &Message{Type: MsgManage, ID: 123456, JobContact: "gram://bench.anl.gov/job/123456", Action: ManageStatus}
	benchReply   = &Message{Type: MsgManageReply, ID: 123456, State: string(StateActive), Owner: "/O=Grid/O=Bench/OU=org0017/CN=member 000123"}
)

// TestMessageCodecAllocations is the allocation gate: a warm
// WriteMessage allocates nothing, and ReadMessage allocates the Message
// and its strings and nothing else.
func TestMessageCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := WriteMessage(io.Discard, benchReply); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteMessage allocates %v times per status reply, want 0", n)
	}
	for _, tc := range []struct {
		name string
		m    *Message
		want float64
	}{
		{"status reply", benchReply, 4},     // Message, Type, State, Owner
		{"status request", benchRequest, 4}, // Message, Type, JobContact, Action
		// Message, Type, RSL (escaped: unescaped on the stack, one copy out)
		{"job request", &Message{Type: MsgJobRequest, ID: 1, RSL: "&(executable=sim)(count<4)"}, 3},
		// Message, Type, ProtoError, Source, Message
		{"denial", &Message{Type: MsgManageReply, ID: 1, Err: &ProtoError{Code: CodeAuthorizationDenied, Source: "policy:VO", Message: "no grant satisfied"}}, 5},
	} {
		var frame bytes.Buffer
		if err := WriteMessage(&frame, tc.m); err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(nil)
		br := bufio.NewReader(rd)
		if n := testing.AllocsPerRun(200, func() {
			rd.Reset(frame.Bytes())
			br.Reset(rd)
			if _, err := ReadMessage(br); err != nil {
				t.Fatal(err)
			}
		}); n != tc.want {
			t.Errorf("ReadMessage allocates %v times per %s, want %v", n, tc.name, tc.want)
		}
	}
}

// BenchmarkMessageCodec prices one frame each way, request and reply
// shapes of the manage-reuse workload.
func BenchmarkMessageCodec(b *testing.B) {
	for _, tc := range []struct {
		name string
		m    *Message
	}{{"request", benchRequest}, {"reply", benchReply}} {
		var frame bytes.Buffer
		if err := WriteMessage(&frame, tc.m); err != nil {
			b.Fatal(err)
		}
		b.Run("write/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(frame.Len()))
			for i := 0; i < b.N; i++ {
				if err := WriteMessage(io.Discard, tc.m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("read/"+tc.name, func(b *testing.B) {
			rd := bytes.NewReader(nil)
			br := bufio.NewReader(rd)
			b.ReportAllocs()
			b.SetBytes(int64(frame.Len()))
			for i := 0; i < b.N; i++ {
				rd.Reset(frame.Bytes())
				br.Reset(rd)
				if _, err := ReadMessage(br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
