// Package gram implements the GT2 Grid Resource Acquisition and
// Management system the paper extends: the Gatekeeper, the Job Manager
// Instance (JMI), the wire protocol between them and Grid clients, and
// both authorization models — the stock GT2 one (grid-mapfile +
// initiator-only management, §4) and the paper's extension (authorization
// callouts before job-request creation and before cancel, query and
// signal, §5).
//
// The wire protocol is newline-delimited JSON over TCP, preceded by a GSI
// mutual-authentication handshake. It is not the GT2 HTTP-framed
// protocol, but it carries the same conversation: a job request with an
// RSL description and a requested account; a reply with a job contact or
// an error; management requests against a job contact. Per the paper's
// protocol extension, error replies distinguish authorization DENIAL from
// authorization SYSTEM FAILURE and carry the denial reason.
package gram

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"gridauth/internal/jsonwire"
)

// FeatureMux is the capability string announced in the GSI handshake
// hello by peers that speak protocol version 2: request/reply
// correlation via Message.ID, allowing many in-flight requests to share
// one authenticated connection. Version-1 peers (which announce
// nothing) get the original strictly-serial conversation.
const FeatureMux = "gram-mux/2"

// MaxMessageSize caps one framed wire message. The newline-delimited
// JSON framing would otherwise let a misbehaving peer balloon server
// memory with a single unbounded line.
const MaxMessageSize = 1 << 20

// Wire framing errors.
var (
	// ErrMessageTooLarge reports a frame exceeding MaxMessageSize. The
	// stream has lost framing (the rest of the oversized line was never
	// consumed), so the connection must be torn down after reporting.
	ErrMessageTooLarge = errors.New("gram: message exceeds size limit")
	// ErrMalformedMessage reports a complete frame that failed to
	// decode. Framing is intact, so the connection can carry on after
	// an error reply.
	ErrMalformedMessage = errors.New("gram: malformed message")
)

// Code is a GRAM protocol error code.
type Code int

// Protocol error codes.
const (
	CodeOK Code = iota
	// CodeAuthentication: the GSI handshake or credential check failed.
	CodeAuthentication
	// CodeAuthorizationDenied: a policy evaluation point denied the
	// request (the paper's authorization-error extension).
	CodeAuthorizationDenied
	// CodeAuthorizationFailure: the authorization system itself failed
	// (misconfigured callout, unreachable PDP, unparseable policy).
	CodeAuthorizationFailure
	// CodeBadRSL: the job description did not parse or validate.
	CodeBadRSL
	// CodeNoLocalAccount: no local account could be mapped for the user.
	CodeNoLocalAccount
	// CodeNoSuchJob: the job contact does not name a live job.
	CodeNoSuchJob
	// CodeJobState: the operation is invalid in the job's current state.
	CodeJobState
	// CodeLocalScheduler: the local job control system refused the job.
	CodeLocalScheduler
	// CodeInternal: anything else.
	CodeInternal
	// CodeAuthorizationUnavailable: the authorization system failed
	// transiently while deciding a MANAGEMENT request (callout timeout,
	// open circuit breaker, unreachable PDP). Unlike
	// CodeAuthorizationFailure it is RETRYABLE: the job exists and
	// nothing was decided about it, so the client should back off and
	// retry. Job STARTUP never uses it — a startup the authorization
	// system could not decide is refused outright (fail-closed,
	// CodeAuthorizationFailure), per the paper's default-deny model.
	// Appended after CodeInternal so every pre-existing code keeps its
	// wire value for old peers.
	CodeAuthorizationUnavailable
)

// String returns the code name.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeAuthentication:
		return "authentication-failed"
	case CodeAuthorizationDenied:
		return "authorization-denied"
	case CodeAuthorizationFailure:
		return "authorization-system-failure"
	case CodeBadRSL:
		return "bad-rsl"
	case CodeNoLocalAccount:
		return "no-local-account"
	case CodeNoSuchJob:
		return "no-such-job"
	case CodeJobState:
		return "bad-job-state"
	case CodeLocalScheduler:
		return "local-scheduler-error"
	case CodeAuthorizationUnavailable:
		return "authorization-unavailable"
	default:
		return "internal-error"
	}
}

// ProtoError is the error payload of a reply.
type ProtoError struct {
	Code    Code   `json:"code"`
	Source  string `json:"source,omitempty"`
	Message string `json:"message,omitempty"`
}

// Error implements the error interface.
func (e *ProtoError) Error() string {
	if e.Source != "" {
		return fmt.Sprintf("gram: %s (%s): %s", e.Code, e.Source, e.Message)
	}
	return fmt.Sprintf("gram: %s: %s", e.Code, e.Message)
}

// Message kinds exchanged after the handshake.
const (
	MsgJobRequest  = "job-request"
	MsgJobReply    = "job-reply"
	MsgManage      = "manage-request"
	MsgManageReply = "manage-reply"
)

// Management actions carried by MsgManage. These are the GRAM client
// operations; they map onto the policy actions cancel, information and
// signal.
const (
	ManageCancel = "cancel"
	ManageStatus = "status"
	ManageSignal = "signal"
)

// Signal subcommands (the paper: "signal describes a variety of job
// management actions such as changing priority").
const (
	SignalSuspend  = "suspend"
	SignalResume   = "resume"
	SignalPriority = "priority"
)

// Message is the protocol envelope.
type Message struct {
	Type string `json:"type"`

	// ID correlates a reply with its request on a multiplexed
	// connection (protocol version 2, negotiated via FeatureMux in the
	// GSI handshake hello). Zero on version-1 conversations, where
	// strict request/reply ordering makes correlation implicit.
	ID uint64 `json:"id,omitempty"`

	// Job request fields.
	RSL     string `json:"rsl,omitempty"`
	Account string `json:"account,omitempty"`

	// Management fields.
	JobContact string `json:"jobContact,omitempty"`
	Action     string `json:"action,omitempty"`
	Signal     string `json:"signal,omitempty"`
	SignalArg  string `json:"signalArg,omitempty"`

	// Reply fields.
	State   string      `json:"state,omitempty"`
	Owner   string      `json:"owner,omitempty"`
	Detail  string      `json:"detail,omitempty"`
	Contact string      `json:"contact,omitempty"`
	Err     *ProtoError `json:"error,omitempty"`
}

// WriteMessage frames and sends a message with a single Write from a
// pooled buffer.
func WriteMessage(w io.Writer, m *Message) error {
	bp := jsonwire.GetFrame()
	b := append(appendMessage((*bp)[:0], m), '\n')
	_, err := w.Write(b)
	jsonwire.PutFrame(bp, b)
	if err != nil {
		return fmt.Errorf("write message: %w", err)
	}
	return nil
}

// ReadMessage reads one framed message. It returns ErrMessageTooLarge
// for frames over MaxMessageSize (connection unusable afterwards) and
// ErrMalformedMessage for complete frames that fail to decode
// (connection still usable).
//
// A frame that fits br's buffer is decoded where it lies. Frames in the
// form WriteMessage emits take the reflection-free parser; every other
// frame is decoded, or refused, by json.Unmarshal, which thereby stays
// the definition of what a peer may send.
func ReadMessage(br *bufio.Reader) (*Message, error) {
	line, err := jsonwire.ReadLine(br, MaxMessageSize)
	if err == jsonwire.ErrLineTooLong {
		return nil, ErrMessageTooLarge
	}
	if err != nil {
		return nil, err
	}
	if m, ok := parseMessage(line); ok {
		return m, nil
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedMessage, err)
	}
	return &m, nil
}
