// Package gridmap implements the GT2 grid-mapfile: the configuration file
// the Gatekeeper uses both as an access control list and as the mapping
// from Grid identities to local accounts.
//
// The file format is the real GT2 one: each line holds a quoted
// distinguished name followed by one or more comma-separated local
// account names, e.g.
//
//	"/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" keahey,fusion
//	# comment lines and blank lines are ignored
//
// The first listed account is the default mapping; the rest are alternate
// accounts the user may request. As the paper notes (§4.3), this is the
// entire authorization story of stock GT2: "authorization of user job
// startup ... is based solely on whether a user has an account on a
// resource."
package gridmap

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"gridauth/internal/gsi"
)

// Entry is one grid-mapfile line: a Grid identity and its local accounts.
type Entry struct {
	Identity gsi.DN
	Accounts []string
}

// Map is a parsed grid-mapfile.
type Map struct {
	mu      sync.RWMutex
	entries map[gsi.DN]*Entry
}

// New returns an empty grid map.
func New() *Map {
	return &Map{entries: make(map[gsi.DN]*Entry)}
}

// ParseError reports a malformed grid-mapfile line.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("gridmap: line %d: %s", e.Line, e.Msg)
}

// Parse reads a grid-mapfile.
func Parse(r io.Reader) (*Map, error) {
	m := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, err := parseLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		m.Add(entry.Identity, entry.Accounts...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gridmap: read: %w", err)
	}
	return m, nil
}

// ParseString parses a grid-mapfile from a string.
//
//authlint:ignore deadexport cmd/gatekeeper/main_test.go parses its fixtures with it
func ParseString(s string) (*Map, error) {
	return Parse(strings.NewReader(s))
}

func parseLine(line string, lineNo int) (*Entry, error) {
	if !strings.HasPrefix(line, `"`) {
		return nil, &ParseError{Line: lineNo, Msg: "distinguished name must be quoted"}
	}
	end := strings.Index(line[1:], `"`)
	if end < 0 {
		return nil, &ParseError{Line: lineNo, Msg: "unterminated quoted distinguished name"}
	}
	dn := gsi.DN(line[1 : 1+end])
	if !dn.Valid() {
		return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("invalid DN %q", dn)}
	}
	rest := strings.TrimSpace(line[2+end:])
	if rest == "" {
		return nil, &ParseError{Line: lineNo, Msg: "missing local account"}
	}
	var accounts []string
	for _, a := range strings.Split(rest, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, &ParseError{Line: lineNo, Msg: "empty account name"}
		}
		if strings.ContainsAny(a, " \t") {
			return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("account %q contains whitespace", a)}
		}
		accounts = append(accounts, a)
	}
	return &Entry{Identity: dn, Accounts: accounts}, nil
}

// Add inserts or extends the entry for identity.
func (m *Map) Add(identity gsi.DN, accounts ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[identity]
	if !ok {
		e = &Entry{Identity: identity}
		m.entries[identity] = e
	}
	for _, a := range accounts {
		if !containsString(e.Accounts, a) {
			e.Accounts = append(e.Accounts, a)
		}
	}
}

// LookupAccount maps identity to the requested account if listed, or to
// the default account when requested is empty. The bool result reports
// whether the mapping is permitted.
func (m *Map) LookupAccount(identity gsi.DN, requested string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[identity]
	if !ok || len(e.Accounts) == 0 {
		return "", false
	}
	if requested == "" {
		return e.Accounts[0], true
	}
	if containsString(e.Accounts, requested) {
		return requested, true
	}
	return "", false
}

// Accounts returns a copy of all accounts mapped for identity.
func (m *Map) Accounts(identity gsi.DN) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[identity]
	if !ok {
		return nil
	}
	return append([]string(nil), e.Accounts...)
}

// Identities returns the sorted list of identities in the map.
func (m *Map) Identities() []gsi.DN {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := make([]gsi.DN, 0, len(m.entries))
	for id := range m.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Len returns the number of entries.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// WriteTo serializes the map in grid-mapfile format, sorted by DN.
func (m *Map) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, id := range m.Identities() {
		accounts := m.Accounts(id)
		n, err := fmt.Fprintf(w, "%q %s\n", string(id), strings.Join(accounts, ","))
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
