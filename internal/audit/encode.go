// Reflection-free JSON encoding for the pipeline's group commit. At
// the >=1M records/s the P11 benchmark holds the pipeline to,
// encoding/json's reflective Marshal is the single largest per-record
// cost; this encoder renders every record without spans by appending
// into a reused buffer, its strings escaped by jsonwire, and punts the
// rest back to encoding/json. The output is what json.Marshal would
// produce for the same record, so segment files look identical either
// way; correctness only requires valid JSON, since every hash is
// computed over the bytes as written.

package audit

import (
	"strconv"
	"time"

	"gridauth/internal/jsonwire"
)

// recordEncoder renders records on the fast path. It caches the
// rendered timestamp down to the second: at group-commit rates many
// consecutive records land inside one wall-clock second, and
// re-rendering only the fractional part is far cheaper than a full
// RFC3339Nano format.
type recordEncoder struct {
	lastSec int64
	lastOff int    // zone offset the cache was rendered under
	prefix  []byte // "2006-01-02T15:04:05" of lastSec
	zone    []byte // "Z" or "+07:00" suffix
}

// appendTime appends t in RFC3339Nano — byte for byte what
// encoding/json emits for a time.Time.
func (e *recordEncoder) appendTime(dst []byte, t time.Time) []byte {
	sec := t.Unix()
	_, off := t.Zone()
	if sec != e.lastSec || off != e.lastOff || len(e.prefix) == 0 {
		whole := t.Add(-time.Duration(t.Nanosecond()))
		e.prefix = whole.AppendFormat(e.prefix[:0], "2006-01-02T15:04:05")
		e.zone = whole.AppendFormat(e.zone[:0], "Z07:00")
		e.lastSec, e.lastOff = sec, off
	}
	dst = append(dst, e.prefix...)
	if ns := t.Nanosecond(); ns != 0 {
		// RFC3339Nano: nine fractional digits with trailing zeros trimmed.
		var frac [10]byte
		frac[0] = '.'
		for i := 9; i >= 1; i-- {
			frac[i] = byte('0' + ns%10)
			ns /= 10
		}
		n := 9
		for frac[n] == '0' {
			n--
		}
		dst = append(dst, frac[:n+1]...)
	}
	return append(dst, e.zone...)
}

// appendRecord appends r's JSON object to dst. ok is false when r
// needs the encoding/json slow path (spans present, or a timestamp
// outside JSON's year range); dst is then returned unchanged.
func (e *recordEncoder) appendRecord(dst []byte, r *Record) (_ []byte, ok bool) {
	if len(r.Spans) > 0 {
		return dst, false
	}
	if y := r.Time.Year(); y < 0 || y > 9999 {
		return dst, false // json.Marshal rejects these; let it say so
	}
	dst = append(dst, '{')
	if r.Seq != 0 {
		dst = append(dst, `"seq":`...)
		dst = strconv.AppendUint(dst, r.Seq, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"time":"`...)
	dst = e.appendTime(dst, r.Time)
	dst = append(dst, '"')
	dst = jsonwire.AppendField(dst, `,"requestId":`, r.RequestID)
	dst = jsonwire.AppendString(append(dst, `,"subject":`...), string(r.Subject))
	dst = jsonwire.AppendString(append(dst, `,"action":`...), r.Action)
	dst = jsonwire.AppendField(dst, `,"jobId":`, r.JobID)
	dst = jsonwire.AppendField(dst, `,"jobOwner":`, string(r.JobOwner))
	dst = jsonwire.AppendString(append(dst, `,"pdp":`...), r.PDP)
	dst = jsonwire.AppendString(append(dst, `,"effect":`...), r.Effect)
	dst = jsonwire.AppendField(dst, `,"source":`, r.Source)
	dst = jsonwire.AppendField(dst, `,"reason":`, r.Reason)
	dst = append(dst, `,"elapsedNanos":`...)
	dst = strconv.AppendInt(dst, int64(r.Elapsed), 10)
	dst = append(dst, '}')
	return dst, true
}
