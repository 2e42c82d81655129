// Package audit is a fixture stub of gridauth/internal/audit for the
// auditdeny analyzer, which matches the audit package structurally (a
// package named audit declaring a Log type).
package audit

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
