package gridftp

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"

	"gridauth/internal/jsonwire"
)

// The frame codec, built like gram's and gsi's from internal/jsonwire:
// request and response are appended and scanned without reflection,
// encoding/json defines the format (appendRequest and appendResponse
// emit json.Marshal's bytes) and decodes every frame the scanners
// refuse. FuzzGridFTPCodec holds both to that.

// MaxFrameSize caps one framed request or response, file data included.
// Without it a peer that never sends a newline grows the reader's memory
// without limit.
const MaxFrameSize = 16 << 20

func appendRequest(b []byte, r *request) []byte {
	b = append(b, `{"op":`...)
	b = jsonwire.AppendString(b, r.Op)
	b = append(b, `,"path":`...)
	b = jsonwire.AppendString(b, r.Path)
	if r.Size != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, r.Size, 10)
	}
	if len(r.Data) > 0 {
		b = jsonwire.AppendBytes(append(b, `,"data":`...), r.Data)
	}
	return append(b, '}')
}

func appendResponse(b []byte, r *response) []byte {
	b = append(b, `{"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	b = jsonwire.AppendField(b, `,"code":`, r.Code)
	b = jsonwire.AppendField(b, `,"message":`, r.Message)
	if len(r.Data) > 0 {
		b = jsonwire.AppendBytes(append(b, `,"data":`...), r.Data)
	}
	if len(r.Names) > 0 {
		b = jsonwire.AppendStrings(append(b, `,"names":`...), r.Names)
	}
	return append(b, '}')
}

// parseRequest decodes a newline-terminated frame of the form
// appendRequest emits (any key order, no negative size) into r.
func parseRequest(line []byte, r *request) bool {
	i, ok := jsonwire.ParseObject(line, 0, func(key []byte, i int) (bit, next int, ok bool) {
		switch string(key) {
		case "op":
			r.Op, next, ok = jsonwire.ParseString(line, i)
			return 0, next, ok
		case "path":
			r.Path, next, ok = jsonwire.ParseString(line, i)
			return 1, next, ok
		case "size":
			var n uint64
			n, next, ok = jsonwire.ParseUint(line, i, math.MaxInt64)
			r.Size = int64(n)
			return 2, next, ok
		case "data":
			r.Data, next, ok = jsonwire.ParseBytes(line, i)
			return 3, next, ok
		}
		return 0, 0, false
	})
	return ok && i == len(line)-1 && line[i] == '\n'
}

// parseResponse is parseRequest for a response.
func parseResponse(line []byte, r *response) bool {
	i, ok := jsonwire.ParseObject(line, 0, func(key []byte, i int) (bit, next int, ok bool) {
		switch string(key) {
		case "ok":
			r.OK, next, ok = jsonwire.ParseBool(line, i)
			return 0, next, ok
		case "code":
			r.Code, next, ok = jsonwire.ParseString(line, i)
			return 1, next, ok
		case "message":
			r.Message, next, ok = jsonwire.ParseString(line, i)
			return 2, next, ok
		case "data":
			r.Data, next, ok = jsonwire.ParseBytes(line, i)
			return 3, next, ok
		case "names":
			r.Names, next, ok = jsonwire.ParseStrings(line, i)
			return 4, next, ok
		}
		return 0, 0, false
	})
	return ok && i == len(line)-1 && line[i] == '\n'
}

// writeFrame terminates the frame appended to (*bp)[:0], sends it with a
// single Write and returns the buffer to the pool.
func writeFrame(w io.Writer, bp *[]byte, b []byte) error {
	b = append(b, '\n')
	_, err := w.Write(b)
	jsonwire.PutFrame(bp, b)
	return err
}

func writeRequest(w io.Writer, r *request) error {
	bp := jsonwire.GetFrame()
	return writeFrame(w, bp, appendRequest((*bp)[:0], r))
}

func writeResponse(w io.Writer, r *response) error {
	bp := jsonwire.GetFrame()
	return writeFrame(w, bp, appendResponse((*bp)[:0], r))
}

// readFrame reads one frame of at most MaxFrameSize bytes into a new T;
// jsonwire.ErrLineTooLong reports a longer one.
func readFrame[T any](br *bufio.Reader, parse func(line []byte, v *T) bool) (*T, error) {
	line, err := jsonwire.ReadLine(br, MaxFrameSize)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if !parse(line, v) {
		v = new(T) // the scanner may have filled part of the first
		err = json.Unmarshal(line, v)
	}
	return v, err
}

func readRequest(br *bufio.Reader) (*request, error) { return readFrame(br, parseRequest) }

func readResponse(br *bufio.Reader) (*response, error) { return readFrame(br, parseResponse) }
