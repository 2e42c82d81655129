package audit

import (
	"encoding/json"
	"testing"
	"time"

	"gridauth/internal/obs"
)

// TestAppendRecordMatchesEncodingJSON pins the fast-path encoder to
// encoding/json byte for byte across the record shapes the pipeline
// commits, so segment files look identical whichever path rendered
// them.
func TestAppendRecordMatchesEncodingJSON(t *testing.T) {
	when := time.Date(2026, 8, 9, 13, 14, 15, 123456789, time.UTC)
	cases := []Record{
		{Time: when, Subject: "/O=Grid/CN=Kate", Action: "start", PDP: "p", Effect: "permit"},
		{Seq: 7, Time: when, Subject: "/O=Grid/CN=Kate", Action: "cancel", PDP: "p", Effect: "deny",
			Source: "policy:local", Reason: "queue != fast violated", Elapsed: 1830 * time.Nanosecond},
		{Seq: 1, Time: when.Truncate(time.Second), RequestID: "req-00000001",
			Subject: "/O=Grid/O=NFC/CN=Alan Analyst", Action: "start", JobID: "job-9",
			JobOwner: "/O=Grid/O=NFC/CN=Alan Analyst", PDP: "gk", Effect: "permit", Elapsed: time.Millisecond},
		// Fractional-second shapes: trailing zeros trimmed, leading zeros
		// kept, and a non-UTC zone suffix.
		{Seq: 2, Time: when.Truncate(time.Second).Add(123 * time.Millisecond),
			Subject: "/O=Grid/CN=Kate", Action: "start", PDP: "p", Effect: "permit"},
		{Seq: 3, Time: when.Truncate(time.Second).Add(42 * time.Nanosecond),
			Subject: "/O=Grid/CN=Kate", Action: "start", PDP: "p", Effect: "permit"},
		{Seq: 4, Time: when.In(time.FixedZone("IST", 5*3600+1800)),
			Subject: "/O=Grid/CN=Kate", Action: "start", PDP: "p", Effect: "permit"},
		{Seq: 5, Time: time.Now(), Subject: "/O=Grid/CN=Kate", Action: "start", PDP: "p", Effect: "permit"},
		// Strings that need escaping: the HTML characters encoding/json
		// escapes, a quote, non-ASCII, a control byte, a line separator,
		// and invalid UTF-8.
		{Seq: 6, Time: when, Subject: "/O=Grid/CN=Kate", Action: "start", PDP: "policy:VO", Effect: "deny",
			Source: "policy:VO", Reason: "(count<=64) violated: count > 64 & <none> matched"},
		{Time: when, Subject: "/O=Grid/CN=Quote\"", Action: "start", PDP: "p", Effect: "permit"},
		{Time: when, Subject: "/O=Grid/CN=Køte", Action: "start", PDP: "p", Effect: "permit"},
		{Time: when, Subject: "/O=Grid/CN=Kate", Action: "start", PDP: "p", Effect: "permit",
			Reason: "line\nbreak"},
		{Time: when, Subject: "/O=Grid/CN=Kate\u2028", Action: "start", JobOwner: "/O=Grid/CN=\xff",
			PDP: "p", Effect: "permit"},
	}
	var enc recordEncoder
	for i, r := range cases {
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := enc.appendRecord(nil, &r)
		if !ok {
			t.Fatalf("case %d: fast path refused a record without spans", i)
		}
		if string(got) != string(want) {
			t.Fatalf("case %d:\nfast: %s\njson: %s", i, got, want)
		}
	}
	// Repeated timestamps exercise the cached rendering.
	var enc2 recordEncoder
	for i := 0; i < 3; i++ {
		r := cases[0]
		got, ok := enc2.appendRecord(nil, &r)
		want, _ := json.Marshal(&r)
		if !ok || string(got) != string(want) {
			t.Fatalf("cached-time pass %d diverged: %s", i, got)
		}
	}
}

// TestAppendRecordFallsBack pins the shapes that must take the
// encoding/json path: spans and out-of-range years.
func TestAppendRecordFallsBack(t *testing.T) {
	when := time.Date(2026, 8, 9, 13, 14, 15, 0, time.UTC)
	cases := []Record{
		{Time: when, Subject: "/O=Grid/CN=Kate", Action: "start", PDP: "p", Effect: "permit",
			Spans: []obs.Span{{PDP: "p", Effect: "permit"}}},
		{Time: time.Date(10001, 1, 1, 0, 0, 0, 0, time.UTC), Subject: "/O=Grid/CN=Kate",
			Action: "start", PDP: "p", Effect: "permit"},
	}
	var enc recordEncoder
	for i, r := range cases {
		if out, ok := enc.appendRecord([]byte("keep"), &r); ok {
			t.Fatalf("case %d: fast path accepted a record needing the slow path", i)
		} else if string(out) != "keep" {
			t.Fatalf("case %d: refused encode mutated dst: %q", i, out)
		}
	}
}
