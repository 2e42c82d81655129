package gram

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"gridauth/internal/core"
	"gridauth/internal/rsl"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: MsgJobRequest, RSL: `&(executable=a)(count=2)`, Account: "alice"},
		{Type: MsgJobReply, Contact: "gram://h/job/1"},
		{Type: MsgManage, JobContact: "gram://h/job/1", Action: ManageSignal, Signal: SignalPriority, SignalArg: "7"},
		{Type: MsgManageReply, State: string(StateActive), Owner: "/O=Grid/CN=A", Detail: "d"},
		{Type: MsgJobReply, Err: &ProtoError{Code: CodeAuthorizationDenied, Source: "vo", Message: "no"}},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := ReadMessage(br)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Type != want.Type || got.RSL != want.RSL || got.Action != want.Action ||
			got.Signal != want.Signal || got.SignalArg != want.SignalArg ||
			got.Contact != want.Contact || got.State != want.State {
			t.Errorf("msg %d: got %+v, want %+v", i, got, want)
		}
		if (got.Err == nil) != (want.Err == nil) {
			t.Errorf("msg %d: error presence mismatch", i)
		} else if want.Err != nil && (got.Err.Code != want.Err.Code || got.Err.Source != want.Err.Source) {
			t.Errorf("msg %d: err = %+v", i, got.Err)
		}
	}
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("not json\n"))
	if _, err := ReadMessage(br); err == nil {
		t.Errorf("garbage accepted")
	}
}

func TestProtoErrorFormatting(t *testing.T) {
	withSource := &ProtoError{Code: CodeAuthorizationDenied, Source: "policy:VO", Message: "count too high"}
	if !strings.Contains(withSource.Error(), "policy:VO") || !strings.Contains(withSource.Error(), "authorization-denied") {
		t.Errorf("Error() = %q", withSource.Error())
	}
	plain := &ProtoError{Code: CodeNoSuchJob, Message: "gone"}
	if strings.Contains(plain.Error(), "()") {
		t.Errorf("Error() = %q", plain.Error())
	}
	// Every code has a distinct printable name.
	seen := map[string]Code{}
	for c := CodeOK; c <= CodeInternal; c++ {
		name := c.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("codes %d and %d share name %q", prev, c, name)
		}
		seen[name] = c
	}
}

func TestSpecToLRM(t *testing.T) {
	spec, err := rsl.ParseSpec(`&(executable=sim)(count=4)(maxtime=30)(maxmemory=512)(disk=100)(priority=3)(simduration=600)`)
	if err != nil {
		t.Fatal(err)
	}
	got, perr := specToLRM(spec, "alice")
	if perr != nil {
		t.Fatal(perr)
	}
	if got.Executable != "sim" || got.Account != "alice" || got.Count != 4 {
		t.Errorf("basic fields: %+v", got)
	}
	if got.MaxTime != 30*time.Minute {
		t.Errorf("MaxTime = %v", got.MaxTime)
	}
	if got.MemoryMB != 512 || got.DiskMB != 100 || got.Priority != 3 {
		t.Errorf("resources: %+v", got)
	}
	if got.Duration != 10*time.Minute {
		t.Errorf("Duration = %v", got.Duration)
	}

	// Defaults.
	minimal, err := rsl.ParseSpec(`&(executable=sim)`)
	if err != nil {
		t.Fatal(err)
	}
	got, perr = specToLRM(minimal, "a")
	if perr != nil {
		t.Fatal(perr)
	}
	if got.Count != 1 || got.Priority != 0 || got.Duration != 0 {
		t.Errorf("defaults: %+v", got)
	}

	// Bad integers yield BadRSL protocol errors.
	for _, attr := range []string{"count", "maxtime", "maxmemory", "disk", "priority", "simduration"} {
		s := rsl.NewSpec().Set("executable", "x").Set(attr, "frog")
		if _, perr := specToLRM(s, "a"); perr == nil || perr.Code != CodeBadRSL {
			t.Errorf("%s=frog: perr = %v", attr, perr)
		}
	}
	zero := rsl.NewSpec().Set("executable", "x").Set("count", "0")
	if _, perr := specToLRM(zero, "a"); perr == nil {
		t.Errorf("count=0 accepted")
	}
}

func TestManageToPolicyAction(t *testing.T) {
	tests := map[string]string{
		ManageCancel: "cancel",
		ManageStatus: "information",
		ManageSignal: "signal",
		"bogus":      "",
	}
	for in, want := range tests {
		if got := manageToPolicyAction(in); got != want {
			t.Errorf("manageToPolicyAction(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDecisionToProto(t *testing.T) {
	if perr := decisionToProto(core.PermitDecision("s", "ok")); perr != nil {
		t.Errorf("permit produced %v", perr)
	}
	d := decisionToProto(core.DenyDecision("policy:VO", "count"))
	if d == nil || d.Code != CodeAuthorizationDenied || d.Source != "policy:VO" {
		t.Errorf("deny mapped to %+v", d)
	}
	e := decisionToProto(core.ErrorDecision("callout", "down"))
	if e == nil || e.Code != CodeAuthorizationFailure {
		t.Errorf("error mapped to %+v", e)
	}
}

func TestIsAuthorizationHelpers(t *testing.T) {
	denied := error(&ProtoError{Code: CodeAuthorizationDenied})
	failure := error(&ProtoError{Code: CodeAuthorizationFailure})
	other := errors.New("net down")
	if !IsAuthorizationDenied(denied) || IsAuthorizationDenied(failure) || IsAuthorizationDenied(other) {
		t.Errorf("IsAuthorizationDenied wrong")
	}
	if !IsAuthorizationFailure(failure) || IsAuthorizationFailure(denied) || IsAuthorizationFailure(other) {
		t.Errorf("IsAuthorizationFailure wrong")
	}
}
