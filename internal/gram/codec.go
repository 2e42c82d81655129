package gram

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"
)

// The frame codec. Message and ProtoError are two fixed structs of
// strings and two integers, so a frame is encoded by appending and
// decoded by one strict scan, with no reflection on either side.
// encoding/json stays the definition of the wire format: appendMessage
// emits exactly the bytes json.Marshal would, and parseMessage accepts
// only frames of the form appendMessage emits (any key order), handing
// everything else — a frame json.Unmarshal would decode differently, or
// refuse — back to json.Unmarshal. FuzzMessageCodec holds both to that.

// appendMessage appends m's JSON encoding, byte for byte what
// json.Marshal(m) returns.
func appendMessage(b []byte, m *Message) []byte {
	b = append(b, `{"type":`...)
	b = appendString(b, m.Type)
	if m.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, m.ID, 10)
	}
	b = appendField(b, `,"rsl":`, m.RSL)
	b = appendField(b, `,"account":`, m.Account)
	b = appendField(b, `,"jobContact":`, m.JobContact)
	b = appendField(b, `,"action":`, m.Action)
	b = appendField(b, `,"signal":`, m.Signal)
	b = appendField(b, `,"signalArg":`, m.SignalArg)
	b = appendField(b, `,"state":`, m.State)
	b = appendField(b, `,"owner":`, m.Owner)
	b = appendField(b, `,"detail":`, m.Detail)
	b = appendField(b, `,"contact":`, m.Contact)
	if e := m.Err; e != nil {
		b = append(b, `,"error":{"code":`...)
		b = strconv.AppendInt(b, int64(e.Code), 10)
		b = appendField(b, `,"source":`, e.Source)
		b = appendField(b, `,"message":`, e.Message)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendField appends an omitempty string member, key included.
func appendField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: ", \ and the control bytes escaped (short
// forms for \b \f \n \r \t), <, > and & as \u00XX, U+2028/U+2029 as
// \u202X, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
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

// parseMessage decodes one newline-terminated frame of the form
// appendMessage emits: a single object with no whitespace whose keys
// are Message's, each at most once and spelled exactly; whose string
// values are printable ASCII plus the JSON escapes, surrogates
// excepted; and whose numbers are plain unsigned integers in range.
// On such a frame it builds what json.Unmarshal would. Anything else
// reports false and is json.Unmarshal's to decode or refuse, so a
// frame this parser is too strict for costs time, never meaning.
// The strings are copied out of line, which the caller may reuse.
func parseMessage(line []byte) (*Message, bool) {
	if len(line) < 3 || line[0] != '{' {
		return nil, false
	}
	m := new(Message)
	i, ok := parseMembers(line, 1, func(key []byte, i int) (bit, next int, ok bool) {
		var dst *string
		switch string(key) {
		case "type":
			bit, dst = 0, &m.Type
		case "id":
			m.ID, next, ok = parseUint(line, i, math.MaxUint64)
			return 1, next, ok
		case "rsl":
			bit, dst = 2, &m.RSL
		case "account":
			bit, dst = 3, &m.Account
		case "jobContact":
			bit, dst = 4, &m.JobContact
		case "action":
			bit, dst = 5, &m.Action
		case "signal":
			bit, dst = 6, &m.Signal
		case "signalArg":
			bit, dst = 7, &m.SignalArg
		case "state":
			bit, dst = 8, &m.State
		case "owner":
			bit, dst = 9, &m.Owner
		case "detail":
			bit, dst = 10, &m.Detail
		case "contact":
			bit, dst = 11, &m.Contact
		case "error":
			m.Err, next, ok = parseProtoError(line, i)
			return 12, next, ok
		default:
			return 0, 0, false
		}
		*dst, next, ok = parseString(line, i)
		return bit, next, ok
	})
	if !ok || i != len(line)-1 || line[i] != '\n' {
		return nil, false
	}
	return m, true
}

// parseProtoError decodes the "error" member's object at line[i].
func parseProtoError(line []byte, i int) (*ProtoError, int, bool) {
	if i >= len(line) || line[i] != '{' {
		return nil, 0, false
	}
	e := new(ProtoError)
	next, ok := parseMembers(line, i+1, func(key []byte, i int) (bit, next int, ok bool) {
		switch string(key) {
		case "code":
			var n uint64
			n, next, ok = parseUint(line, i, math.MaxInt)
			e.Code = Code(n)
			return 0, next, ok
		case "source":
			e.Source, next, ok = parseString(line, i)
			return 1, next, ok
		case "message":
			e.Message, next, ok = parseString(line, i)
			return 2, next, ok
		}
		return 0, 0, false
	})
	return e, next, ok
}

// parseMembers scans the members of the object opened just before
// line[i] up to and including its closing brace. For each member it
// calls value with the key and the index of the value's first byte;
// value decodes it and returns the member's bit and the index after the
// value. A key seen twice, like any other departure from the emitted
// form, reports false.
func parseMembers(line []byte, i int, value func(key []byte, i int) (bit, next int, ok bool)) (int, bool) {
	if i < len(line) && line[i] == '}' {
		return i + 1, true
	}
	var seen uint
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

// parseUint decodes a JSON number at line[i] that is a plain decimal
// integer no greater than max: digits only, no sign, fraction, exponent
// or leading zero.
func parseUint(line []byte, i int, max uint64) (uint64, int, bool) {
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

// parseString decodes the JSON string at line[i] and returns the index
// after its closing quote.
func parseString(line []byte, i int) (string, int, bool) {
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

// unescapeString finishes parseString for a string with escapes:
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
