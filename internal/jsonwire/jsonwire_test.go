package jsonwire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Each primitive against encoding/json on the values its callers' fuzz
// tests reach only by luck.

func TestAppendMatchesMarshal(t *testing.T) {
	nasty := "q\"uo\\te <&> \x00\x1f\x7f\b\f\n\r\t \u2028\u2029 caf\u00e9 \U0001F600 \xff\xc3 \xed\xa0\x80"
	for _, v := range []any{
		"", "plain", nasty,
		[]string(nil), []string{}, []string{"a", nasty},
		[]byte(nil), []byte{}, []byte{0}, []byte{0, 1}, []byte{0, 1, 2}, bytes.Repeat([]byte{0xfb, 0xff}, 50),
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		switch v := v.(type) {
		case string:
			got = AppendString(nil, v)
		case []string:
			got = AppendStrings(nil, v)
		case []byte:
			got = AppendBytes(nil, v)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T %q: appended %q, json.Marshal gives %q", v, v, got, want)
		}
	}
	for _, tm := range []time.Time{
		{}, time.Unix(1054425600, 0).UTC(), time.Unix(1054425600, 120).In(time.FixedZone("", -7*3600)),
		time.Unix(1054425600, 999_999_999), time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(0, 0).In(time.FixedZone("", 24*3600)), time.Unix(0, 0).In(time.FixedZone("", -24*3600+1)),
	} {
		want, err := json.Marshal(tm)
		got, ok := AppendTime(nil, tm)
		if ok != (err == nil) || (ok && !bytes.Equal(got, want)) {
			t.Errorf("%v: AppendTime = %q, %v; json.Marshal = %q, %v", tm, got, ok, want, err)
		}
	}
}

func TestParseMatchesUnmarshal(t *testing.T) {
	for _, src := range []string{
		`""`, `"QQ=="`, `"QUI="`, `"QUJD"`, `"QUJDRA=="`, `"QQ"`, `"QR=="`, `"QUJ="`, `"QQ==QQ=="`, `"Q==="`, `"===="`, `"=QQQ"`,
		`"QU\nJD"`, "\"QU\rJD\"", `"QU JD"`, `"QUJD`, `null`, `7`, `"QUJD"`,
	} {
		var want []byte
		err := json.Unmarshal([]byte(src), &want)
		got, next, ok := ParseBytes([]byte(src), 0)
		switch {
		case ok && (err != nil || !reflect.DeepEqual(got, want) || next != len(src)):
			t.Errorf("%s: ParseBytes = %q, %d; json.Unmarshal = %q, %v", src, got, next, want, err)
		case !ok && err == nil && strings.Trim(src, `"QUJDRA=`) == "":
			// Canonical base64 is the form the encoder emits: it must
			// not need the fallback.
			if again, _ := json.Marshal(want); string(again) == src {
				t.Errorf("%s: ParseBytes refused the canonical form", src)
			}
		}
	}
	for _, src := range []string{
		`"2003-06-01T00:00:00Z"`, `"2003-06-01T02:00:00.000000001+02:00"`, `"2003-06-01T00:00:00-23:59"`,
		`"10000-01-01T00:00:00Z"`, `"2003-06-01 00:00:00Z"`, `"2003-06-01T00:00:00"`, `"2003-06-01T00:00:00Z "`, `""`, `null`, `"2003-06-01T00:00:00Z`,
	} {
		var want time.Time
		err := json.Unmarshal([]byte(src), &want)
		got, next, ok := ParseTime([]byte(src), 0)
		if ok && (err != nil || !reflect.DeepEqual(got, want) || next != len(src)) {
			t.Errorf("%s: ParseTime = %v, %d; json.Unmarshal = %v, %v", src, got, next, want, err)
		}
		if !ok && err == nil && src != "null" {
			t.Errorf("%s: ParseTime refused what json.Unmarshal reads as %v", src, want)
		}
	}
	for src, want := range map[string]bool{`true`: true, `false`: false} {
		if got, next, ok := ParseBool([]byte(src+","), 0); !ok || got != want || next != len(src) {
			t.Errorf("ParseBool(%s) = %v, %d, %v", src, got, next, ok)
		}
	}
	for _, src := range []string{``, `t`, `tru`, `True`, `1`, `"true"`, `null`} {
		if _, _, ok := ParseBool([]byte(src), 0); ok {
			t.Errorf("ParseBool took %q", src)
		}
	}
	if _, _, ok := ParseBool([]byte(`true`), 9); ok {
		t.Error("ParseBool read past the end of the line")
	}
}

// ReadLine hands back a frame that fits the reader's buffer where it
// lies, collects a longer one, and gives up — without reading on — on
// one longer than the bound.
func TestReadLine(t *testing.T) {
	const max = 100
	stream := strings.Repeat("a", 9) + "\n" + strings.Repeat("b", 60) + "\n" + strings.Repeat("c", max-1) + "\n" + strings.Repeat("d", 10*max) + "\nrest\n"
	rd := strings.NewReader(stream)
	br := bufio.NewReaderSize(rd, 16)
	for _, want := range []string{strings.Repeat("a", 9), strings.Repeat("b", 60), strings.Repeat("c", max-1)} {
		line, err := ReadLine(br, max)
		if err != nil || string(line) != want+"\n" {
			t.Fatalf("ReadLine = %q, %v; want %q", line, err, want)
		}
	}
	if _, err := ReadLine(br, max); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("a frame of ten times the bound: %v, want ErrLineTooLong", err)
	}
	if consumed := len(stream) - rd.Len(); consumed > 9+60+max+3+max+2*16 {
		t.Errorf("ReadLine consumed %d bytes of the stream; it went on reading the oversize frame", consumed)
	}
	if _, err := ReadLine(bufio.NewReader(strings.NewReader("no newline")), max); err != io.EOF {
		t.Errorf("a frame cut off by the end of the stream: %v, want io.EOF", err)
	}
	// The single-piece frame is handed back where it lies: no copy.
	frame := []byte("short\n")
	src := bytes.NewReader(nil)
	br = bufio.NewReaderSize(src, 64)
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		br.Reset(src)
		if line, err := ReadLine(br, max); err != nil || len(line) != len(frame) {
			t.Fatalf("ReadLine = %q, %v", line, err)
		}
	}); n != 0 {
		t.Errorf("ReadLine allocates %v times on a frame that fits the buffer", n)
	}
}

// TestSkipValueMatchesValid: SkipValue accepts a value written without
// whitespace exactly when json.Valid does, up to its nesting bound, and
// never one json.Valid refuses.
func TestSkipValueMatchesValid(t *testing.T) {
	for _, src := range []string{
		`""`, `"a\"b\\c\/d\b\f\n\r\t"`, `"é\uD83D"`, "\"caf\xc3\xa9 \xff\"", `"\u00zz"`, `"\x"`, "\"a\tb\"", `"open`,
		`0`, `-0`, `12`, `-12.5e+3`, `1E9`, `0.0`, `01`, `-`, `1.`, `.5`, `1e`, `1e+`, `+1`, `--1`,
		`true`, `false`, `null`, `tru`, `nul`, `True`,
		`{}`, `[]`, `{"a":1}`, `{"a":1,"b":[true,null,{"c":"d"}]}`, `[1,2,[3,[4]]]`,
		`{"a":1,}`, `[1,]`, `{"a"}`, `{"a":}`, `{1:2}`, `[1 2]`, `{"a":1"b":2}`, `[`, `{`, `{"a":1`,
		`{"a":1,"a":2}`, `{"a" :1}`, `[ 1]`,
		strings.Repeat("[", 32) + strings.Repeat("]", 32),
		strings.Repeat("[", 33) + strings.Repeat("]", 33),
	} {
		line := []byte(src)
		end, ok := SkipValue(line, 0)
		ok = ok && end == len(line)
		var compact bytes.Buffer
		valid := json.Valid(line)
		plain := valid && json.Compact(&compact, line) == nil && bytes.Equal(compact.Bytes(), line) &&
			strings.Count(src, "[") <= 32
		if (ok && !valid) || (plain && !ok) {
			t.Errorf("%q: SkipValue ok=%v, json.Valid=%v", src, ok, valid)
		}
	}
}
