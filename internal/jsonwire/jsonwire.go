// Package jsonwire holds the JSON primitives the module's hand-written
// frame codecs (gram, gsi, gridftp) are built from. Every service frames
// newline-delimited JSON whose shape is a handful of fixed structs, so a
// frame is encoded by appending and decoded by one strict scan, with no
// reflection on either side.
//
// encoding/json stays the definition of every format. The Append
// functions emit exactly the bytes json.Marshal would; where json.Marshal
// would fail (a time outside RFC 3339's range) they report false and the
// caller hands the value to json.Marshal. The Parse functions accept only
// the form the Append functions emit and report false on everything else
// — a value json.Unmarshal would decode differently, or refuse — and the
// caller hands the same bytes to json.Unmarshal. A frame the scanners are
// too strict for therefore costs time, never meaning. Each codec has a
// differential fuzz test that holds it to that.
package jsonwire

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"sync"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: ", \ and the control bytes escaped (short
// forms for \b \f \n \r \t), <, > and & as \u00XX, U+2028/U+2029 as
// \u202X, and each byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendField appends an omitempty string member, key included: key is
// the literal `,"name":`.
func AppendField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return AppendString(append(b, key...), s)
}

// AppendStrings appends a []string value: null for a nil slice, an array
// otherwise.
func AppendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// AppendBytes appends a []byte value: null for a nil slice, padded
// standard base64 in quotes otherwise.
func AppendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	b = append(b, '"')
	b = base64.StdEncoding.AppendEncode(b, p)
	return append(b, '"')
}

// AppendTime appends t as time.Time.MarshalJSON would: RFC 3339 with
// nanoseconds, in quotes. It reports false for the times MarshalJSON
// refuses, a year outside [0,9999] or a zone offset of 24 hours or more.
func AppendTime(b []byte, t time.Time) ([]byte, bool) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len("9999")] != '-' {
		return b, false
	}
	if b[len(b)-1] != 'Z' {
		zone := b[len(b)-len("Z07:00"):]
		if ('0' <= zone[0] && zone[0] <= '9') || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			return b, false
		}
	}
	return append(b, '"'), true
}

// ParseMembers scans the members of the object opened just before
// line[i] up to and including its closing brace. For each member it
// calls value with the key and the index of the value's first byte;
// value decodes it and returns the member's bit (below 64) and the index
// after the value. A key seen twice, like any other departure from the
// emitted form, reports false.
func ParseMembers(line []byte, i int, value func(key []byte, i int) (bit, next int, ok bool)) (int, bool) {
	if i < len(line) && line[i] == '}' {
		return i + 1, true
	}
	var seen uint64
	for {
		if i >= len(line) || line[i] != '"' {
			return 0, false
		}
		n := bytes.IndexByte(line[i+1:], '"')
		if n < 0 {
			return 0, false
		}
		key := line[i+1 : i+1+n]
		i += n + 2
		if i >= len(line) || line[i] != ':' {
			return 0, false
		}
		bit, next, ok := value(key, i+1)
		if !ok || seen&(1<<bit) != 0 || next >= len(line) {
			return 0, false
		}
		seen |= 1 << bit
		switch line[next] {
		case ',':
			i = next + 1
		case '}':
			return next + 1, true
		default:
			return 0, false
		}
	}
}

// ParseObject scans the object at line[i] with ParseMembers and returns
// the index after its closing brace.
func ParseObject(line []byte, i int, value func(key []byte, i int) (bit, next int, ok bool)) (int, bool) {
	if i >= len(line) || line[i] != '{' {
		return 0, false
	}
	return ParseMembers(line, i+1, value)
}

// ParseArray scans the non-empty array at line[i] up to and including
// its closing bracket, calling elem with the index of each element's
// first byte; elem decodes it and returns the index after it. An empty
// array is never emitted (every array member is omitempty), so it
// reports false.
func ParseArray(line []byte, i int, elem func(i int) (next int, ok bool)) (int, bool) {
	if i >= len(line) || line[i] != '[' {
		return 0, false
	}
	i++
	for {
		next, ok := elem(i)
		if !ok || next >= len(line) {
			return 0, false
		}
		switch line[next] {
		case ',':
			i = next + 1
		case ']':
			return next + 1, true
		default:
			return 0, false
		}
	}
}

// ParseStrings decodes the non-empty array of strings at line[i].
func ParseStrings(line []byte, i int) ([]string, int, bool) {
	ss := make([]string, 0, 4)
	next, ok := ParseArray(line, i, func(i int) (int, bool) {
		s, next, ok := ParseString(line, i)
		ss = append(ss, s)
		return next, ok
	})
	return ss, next, ok
}

// ParseUint decodes a JSON number at line[i] that is a plain decimal
// integer no greater than max: digits only, no sign, fraction, exponent
// or leading zero.
func ParseUint(line []byte, i int, max uint64) (uint64, int, bool) {
	start := i
	var n uint64
	for ; i < len(line) && '0' <= line[i] && line[i] <= '9'; i++ {
		d := uint64(line[i] - '0')
		if n > (max-d)/10 {
			return 0, 0, false
		}
		n = n*10 + d
	}
	if i == start || (line[start] == '0' && i > start+1) {
		return 0, 0, false
	}
	return n, i, true
}

// ParseBool decodes the literal true or false at line[i].
func ParseBool(line []byte, i int) (v bool, next int, ok bool) {
	rest := line[min(i, len(line)):]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(rest, []byte("false")):
		return false, i + 5, true
	}
	return false, 0, false
}

// quoted returns the index of the closing quote of the escape-free
// string that opens at line[i].
func quoted(line []byte, i int) (end int, ok bool) {
	if i >= len(line) || line[i] != '"' {
		return 0, false
	}
	n := bytes.IndexByte(line[i+1:], '"')
	if n < 0 || bytes.IndexByte(line[i+1:i+1+n], '\\') >= 0 {
		return 0, false
	}
	return i + 1 + n, true
}

// strictStd refuses base64 whose padding bits are not zero, which
// json.Unmarshal reads but json.Marshal never writes.
var strictStd = base64.StdEncoding.Strict()

// ParseBytes decodes the []byte value at line[i]: canonical padded
// standard base64 in an escape-free string.
func ParseBytes(line []byte, i int) ([]byte, int, bool) {
	end, ok := quoted(line, i)
	if !ok {
		return nil, 0, false
	}
	src := line[i+1 : end]
	// The decoder skips carriage returns, and a raw one is not JSON.
	if len(src)%4 != 0 || bytes.IndexByte(src, '\r') >= 0 {
		return nil, 0, false
	}
	// The exact decoded length, so a key or a signature is not rounded
	// up to the next size class.
	n := len(src) / 4 * 3
	if n > 0 && src[len(src)-1] == '=' {
		n--
		if src[len(src)-2] == '=' {
			n--
		}
	}
	dst := make([]byte, n)
	if m, err := strictStd.Decode(dst, src); err != nil || m != n {
		return nil, 0, false
	}
	return dst, end + 1, true
}

// ParseTime decodes the time.Time value at line[i] with the function
// json.Unmarshal itself decodes it with, on the same bytes.
func ParseTime(line []byte, i int) (time.Time, int, bool) {
	end, ok := quoted(line, i)
	if !ok {
		return time.Time{}, 0, false
	}
	var t time.Time
	if err := t.UnmarshalJSON(line[i : end+1]); err != nil {
		return time.Time{}, 0, false
	}
	return t, end + 1, true
}

// ParseString decodes the JSON string at line[i] and returns the index
// after its closing quote: printable ASCII plus the JSON escapes,
// surrogates excepted. The string is copied out of line.
func ParseString(line []byte, i int) (string, int, bool) {
	if i >= len(line) || line[i] != '"' {
		return "", 0, false
	}
	i++
	for j := i; j < len(line); j++ {
		switch c := line[j]; {
		case c == '"':
			return string(line[i:j]), j + 1, true
		case c == '\\':
			return unescapeString(line, i, j)
		case c < ' ' || c >= utf8.RuneSelf:
			return "", 0, false
		}
	}
	return "", 0, false
}

// unescapeString finishes ParseString for a string with escapes:
// line[i:j] is its escape-free prefix and line[j] the first backslash.
func unescapeString(line []byte, i, j int) (string, int, bool) {
	var stack [256]byte // the unescaped text is never longer than the escaped
	out := append(stack[:0], line[i:j]...)
	for j < len(line) {
		c := line[j]
		switch {
		case c == '"':
			return string(out), j + 1, true
		case c < ' ' || c >= utf8.RuneSelf:
			return "", 0, false
		case c != '\\':
			out = append(out, c)
			j++
			continue
		}
		if j+1 >= len(line) {
			return "", 0, false
		}
		switch c = line[j+1]; c {
		case '"', '\\', '/':
			out = append(out, c)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if j+6 > len(line) {
				return "", 0, false
			}
			var r rune
			for _, h := range line[j+2 : j+6] {
				switch {
				case '0' <= h && h <= '9':
					h -= '0'
				case 'a' <= h && h <= 'f':
					h -= 'a' - 10
				case 'A' <= h && h <= 'F':
					h -= 'A' - 10
				default:
					return "", 0, false
				}
				r = r<<4 | rune(h)
			}
			if 0xD800 <= r && r < 0xE000 {
				// Half of a surrogate pair: pairing and the U+FFFD
				// substitutions are json.Unmarshal's business.
				return "", 0, false
			}
			out = utf8.AppendRune(out, r)
			j += 4
		default:
			return "", 0, false
		}
		j += 2
	}
	return "", 0, false
}

// ErrLineTooLong reports a frame longer than the reader's bound. The
// rest of the line was never consumed, so the stream has lost framing.
var ErrLineTooLong = errors.New("jsonwire: frame exceeds size limit")

// ReadLine reads one newline-terminated frame of at most max bytes. A
// frame that arrives in one piece is returned where it lies in br's
// buffer, valid until the next read; one that outgrew the buffer is
// collected in a slice of its own.
func ReadLine(br *bufio.Reader, max int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		line = append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(line) <= max {
			var frag []byte
			frag, err = br.ReadSlice('\n')
			line = append(line, frag...)
		}
	}
	if len(line) > max {
		return nil, ErrLineTooLong
	}
	if err != nil {
		return nil, err
	}
	return line, nil
}

// framePool recycles the buffers frames are encoded into, so a frame
// costs one Write and, once the pool is warm, no allocation.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxPooledFrame keeps the rare large frame from pinning its buffer in
// the pool.
const maxPooledFrame = 16 << 10

// GetFrame returns an encode buffer from the pool; append to (*bp)[:0].
func GetFrame() *[]byte { return framePool.Get().(*[]byte) }

// PutFrame returns bp to the pool, keeping b — what the caller's appends
// to (*bp)[:0] grew into — as its buffer unless it grew too large.
func PutFrame(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledFrame {
		*bp = b
		framePool.Put(bp)
	}
}
