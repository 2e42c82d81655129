package gram

import (
	"math"
	"strconv"

	"gridauth/internal/jsonwire"
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
	b = jsonwire.AppendString(b, m.Type)
	if m.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, m.ID, 10)
	}
	b = jsonwire.AppendField(b, `,"rsl":`, m.RSL)
	b = jsonwire.AppendField(b, `,"account":`, m.Account)
	b = jsonwire.AppendField(b, `,"jobContact":`, m.JobContact)
	b = jsonwire.AppendField(b, `,"action":`, m.Action)
	b = jsonwire.AppendField(b, `,"signal":`, m.Signal)
	b = jsonwire.AppendField(b, `,"signalArg":`, m.SignalArg)
	b = jsonwire.AppendField(b, `,"state":`, m.State)
	b = jsonwire.AppendField(b, `,"owner":`, m.Owner)
	b = jsonwire.AppendField(b, `,"detail":`, m.Detail)
	b = jsonwire.AppendField(b, `,"contact":`, m.Contact)
	if e := m.Err; e != nil {
		b = append(b, `,"error":{"code":`...)
		b = strconv.AppendInt(b, int64(e.Code), 10)
		b = jsonwire.AppendField(b, `,"source":`, e.Source)
		b = jsonwire.AppendField(b, `,"message":`, e.Message)
		b = append(b, '}')
	}
	return append(b, '}')
}

// parseMessage decodes one newline-terminated frame of the form
// appendMessage emits: a single object with no whitespace whose keys
// are Message's, each at most once and spelled exactly; whose string
// values are printable ASCII plus the JSON escapes, surrogates
// excepted; and whose numbers are plain unsigned integers in range.
// On such a frame it sets in m, which must be zero, what json.Unmarshal
// would. Anything else reports false, leaving m partly set, and is
// json.Unmarshal's to decode or refuse, so a frame this parser is too
// strict for costs time, never meaning. The strings are copied out of
// line, which the caller may reuse.
func parseMessage(line []byte, m *Message) bool {
	i, ok := jsonwire.ParseObject(line, 0, func(key []byte, i int) (bit, next int, ok bool) {
		var dst *string
		switch string(key) {
		case "type":
			bit, dst = 0, &m.Type
		case "id":
			m.ID, next, ok = jsonwire.ParseUint(line, i, math.MaxUint64)
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
		*dst, next, ok = jsonwire.ParseString(line, i)
		return bit, next, ok
	})
	return ok && i == len(line)-1 && line[i] == '\n'
}

// parseProtoError decodes the "error" member's object at line[i].
func parseProtoError(line []byte, i int) (*ProtoError, int, bool) {
	e := new(ProtoError)
	next, ok := jsonwire.ParseObject(line, i, func(key []byte, i int) (bit, next int, ok bool) {
		switch string(key) {
		case "code":
			var n uint64
			n, next, ok = jsonwire.ParseUint(line, i, math.MaxInt)
			e.Code = Code(n)
			return 0, next, ok
		case "source":
			e.Source, next, ok = jsonwire.ParseString(line, i)
			return 1, next, ok
		case "message":
			e.Message, next, ok = jsonwire.ParseString(line, i)
			return 2, next, ok
		}
		return 0, 0, false
	})
	return e, next, ok
}
