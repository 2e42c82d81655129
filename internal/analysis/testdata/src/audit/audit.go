// Package audit is a fixture stub of gridauth/internal/audit for the
// auditdeny analyzer, which matches the audit package structurally (a
// package named audit declaring a Log type). Like the real package it
// holds an enforcement step of its own, which the analyzer checks too.
package audit

import (
	"context"

	"core"
)

// Record is one audited decision.
type Record struct {
	Subject string
	Action  string
	PDP     string
	Effect  string
	Reason  string
}

// Log is a decision log.
type Log struct {
	records []Record
}

// Append stores a record.
func (l *Log) Append(r Record) { l.records = append(l.records, r) }

// DecisionRecord builds the record of one decision.
func DecisionRecord(requestID, pdp string, subject, action string) Record {
	return Record{Subject: subject, Action: action, PDP: pdp}
}

// ParseDegradedMode parses a mode name; it records nothing.
func ParseDegradedMode(s string) (int, error) { return len(s), nil }

// Enforce dispatches and records in the audit package itself: no
// finding.
func Enforce(ctx context.Context, reg *core.Registry, log *Log, calloutType string, req *core.Request) core.Decision {
	d := reg.InvokeContext(ctx, calloutType, req)
	if log != nil {
		log.Append(DecisionRecord("", calloutType, req.Subject, req.Action))
	}
	return d
}

// unrecorded dispatches without recording, in the audit package itself.
func unrecorded(ctx context.Context, reg *core.Registry, req *core.Request) core.Decision {
	return reg.InvokeContext(ctx, "job-submit", req) // want `never reaches an audit record on any path from unrecorded`
}
