package gridftp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// The frame codec's oracle is encoding/json, as for gram's and gsi's:
// same bytes out, same value (or the same refusal) in.

// checkDecode holds readRequest and readResponse to json.Unmarshal on
// one frame, through a buffer it fits and one it does not.
func checkDecode(t *testing.T, frame []byte) {
	t.Helper()
	if i := bytes.IndexByte(frame, '\n'); i >= 0 {
		frame = frame[:i]
	}
	line := append(append([]byte(nil), frame...), '\n')
	var wantReq request
	var wantResp response
	reqErr, respErr := json.Unmarshal(line, &wantReq), json.Unmarshal(line, &wantResp)
	for _, size := range []int{16, 4096} {
		req, err := readRequest(bufio.NewReaderSize(bytes.NewReader(line), size))
		if (err != nil) != (reqErr != nil) || (err == nil && !reflect.DeepEqual(req, &wantReq)) {
			t.Fatalf("buffer %d: frame %q:\n readRequest    %+v, %v\n json.Unmarshal %+v, %v", size, line, req, err, &wantReq, reqErr)
		}
		resp, err := readResponse(bufio.NewReaderSize(bytes.NewReader(line), size))
		if (err != nil) != (respErr != nil) || (err == nil && !reflect.DeepEqual(resp, &wantResp)) {
			t.Fatalf("buffer %d: frame %q:\n readResponse   %+v, %v\n json.Unmarshal %+v, %v", size, line, resp, err, &wantResp, respErr)
		}
	}
}

// checkEncode holds both encoders to json.Marshal and reads the bytes
// back; what they emit in ASCII stays on the fast parsers.
func checkEncode(t *testing.T, req *request, resp *response) {
	t.Helper()
	for _, tc := range []struct {
		v    any
		got  []byte
		fast func(line []byte) bool
	}{
		{req, appendRequest(nil, req), func(line []byte) bool { return parseRequest(line, new(request)) }},
		{resp, appendResponse(nil, resp), func(line []byte) bool { return parseResponse(line, new(response)) }},
	} {
		want, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Fatalf("the encoder wrote\n %q\njson.Marshal gives\n %q", tc.got, want)
		}
		checkDecode(t, want)
		ascii := tc.v != any(req) || req.Size >= 0 // a negative size is json.Unmarshal's
		for _, c := range want {
			ascii = ascii && c < 0x80
		}
		if fast := tc.fast(append(want, '\n')); fast != ascii {
			t.Fatalf("the fast parser took an emitted frame: %v, want %v: %q", fast, ascii, want)
		}
	}
}

func frames(t testing.TB) [][]byte {
	data, err := os.ReadFile("testdata/frames.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(data), []byte("\n"))
}

// TestFramesPinned holds the codec to the recorded wire: a frame in the
// form json.Marshal writes must be reproduced byte for byte from its
// decoded value and taken by the fast parser; every frame, the awkward
// ones included, must decode to what json.Unmarshal yields.
func TestFramesPinned(t *testing.T) {
	emitted := 0
	for n, line := range frames(t) {
		checkDecode(t, line)
		var req request
		var resp response
		if err := json.Unmarshal(line, &req); err == nil {
			if again, _ := json.Marshal(&req); bytes.Equal(again, line) {
				emitted++
				if got := appendRequest(nil, &req); !bytes.Equal(got, line) || !parseRequest(append(got, '\n'), new(request)) {
					t.Errorf("line %d: appendRequest wrote %q (or the fast parser refused it), recorded %q", n+1, got, line)
				}
			}
		}
		if err := json.Unmarshal(line, &resp); err == nil {
			if again, _ := json.Marshal(&resp); bytes.Equal(again, line) {
				emitted++
				if got := appendResponse(nil, &resp); !bytes.Equal(got, line) || !parseResponse(append(got, '\n'), new(response)) {
					t.Errorf("line %d: appendResponse wrote %q (or the fast parser refused it), recorded %q", n+1, got, line)
				}
			}
		}
	}
	if emitted < 12 {
		t.Errorf("%d frames in the emitted form, want the twelve recorded ones", emitted)
	}
	nasty := "q\"uo\\te <&> \x00\x1f\x7f\b\f\n\r\t \u2028\u2029 caf\u00e9 \U0001F600 \xff\xc3 \xed\xa0\x80"
	checkEncode(t, &request{Op: nasty, Path: nasty, Size: -1 << 63, Data: []byte{}}, &response{Code: nasty, Message: nasty, Names: []string{nasty, ""}})
	checkEncode(t, &request{}, &response{})
	checkEncode(t, &request{Op: OpPut, Path: "/big", Data: bytes.Repeat([]byte{0xA5}, 1<<20)}, &response{OK: true, Data: bytes.Repeat([]byte{0x5A}, 1<<20), Names: []string{}})
}

// FuzzGridFTPCodec is the differential test of the frame codec:
// arbitrary bytes through both decoders, arbitrary requests and
// responses through the encoders and back.
func FuzzGridFTPCodec(f *testing.F) {
	for _, line := range frames(f) {
		f.Add(line, OpPut, "/home/alice/notes.txt", int64(4), []byte("mine"), true, "denied", 2)
	}
	f.Add([]byte(`{"op":"get"} `), "<&>", "\xff\u2028", int64(-1), []byte{}, false, "", 0)
	f.Add([]byte(`{"size":9223372036854775808}`), "", "", int64(1<<63-1), []byte(nil), false, "\x00", 1)
	f.Fuzz(func(t *testing.T, frame []byte, op, path string, size int64, data []byte, ok bool, code string, names int) {
		checkDecode(t, frame)
		resp := &response{OK: ok, Code: code, Message: path, Data: data}
		for i := 0; i < names%4; i++ {
			resp.Names = append(resp.Names, op[:min(len(op), i)]+code)
		}
		checkEncode(t, &request{Op: op, Path: path, Size: size, Data: data}, resp)
	})
}

// BenchmarkGridFTPCodec prices deny-mixed's warm put each way.
func BenchmarkGridFTPCodec(b *testing.B) {
	req := &request{Op: OpPut, Path: "/data/bench/org0017/member000123.dat", Data: bytes.Repeat([]byte{7}, 64)}
	line := append(appendRequest(nil, req), '\n')
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeRequest(io.Discard, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		rd := bytes.NewReader(nil)
		br := bufio.NewReader(rd)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(line)
			br.Reset(rd)
			if _, err := readRequest(br); err != nil {
				b.Fatal(err)
			}
		}
	})
}
