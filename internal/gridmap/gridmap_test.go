package gridmap

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"gridauth/internal/gsi"
)

const (
	kate = gsi.DN("/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey")
	bo   = gsi.DN("/O=Grid/O=Globus/OU=uh.edu/CN=Bo Liu")
)

const sample = `
# National Fusion Collaboratory grid-mapfile
"/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" keahey,fusion
"/O=Grid/O=Globus/OU=uh.edu/CN=Bo Liu" bliu
`

func TestParse(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if m.Accounts(kate) == nil || m.Accounts(bo) == nil {
		t.Errorf("expected both users authorized")
	}
	if m.Accounts("/O=Grid/CN=Nobody") != nil {
		t.Errorf("unknown user authorized")
	}
	if acct, ok := m.LookupAccount(kate, ""); !ok || acct != "keahey" {
		t.Errorf("LookupAccount(kate, \"\") = %q, %v", acct, ok)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`/O=Grid/CN=x account`,       // unquoted DN
		`"/O=Grid/CN=x`,              // unterminated quote
		`"/O=Grid/CN=x"`,             // missing account
		`"not-a-dn" acct`,            // invalid DN
		`"/O=Grid/CN=x" a,,b`,        // empty account
		`"/O=Grid/CN=x" "two words"`, // whitespace in account
	}
	for _, line := range bad {
		if _, err := ParseString(line); err == nil {
			t.Errorf("ParseString(%q): expected error", line)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("ParseString(%q): error %v not a *ParseError", line, err)
			}
		}
	}
}

func TestLookupAccount(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		id        gsi.DN
		requested string
		want      string
		ok        bool
	}{
		{kate, "", "keahey", true},
		{kate, "fusion", "fusion", true},
		{kate, "root", "", false},
		{bo, "", "bliu", true},
		{bo, "keahey", "", false},
		{"/O=Grid/CN=Nobody", "", "", false},
	}
	for _, tt := range tests {
		got, ok := m.LookupAccount(tt.id, tt.requested)
		if got != tt.want || ok != tt.ok {
			t.Errorf("LookupAccount(%s, %q) = %q,%v want %q,%v", tt.id, tt.requested, got, ok, tt.want, tt.ok)
		}
	}
}

func TestAddRemove(t *testing.T) {
	m := New()
	m.Add(kate, "keahey")
	m.Add(kate, "keahey", "fusion") // duplicate collapses
	if got := m.Accounts(kate); len(got) != 2 {
		t.Fatalf("Accounts = %v", got)
	}
	m.Remove(kate)
	if _, ok := m.LookupAccount(kate, ""); ok {
		t.Errorf("Remove did not revoke")
	}
	if m.Accounts(kate) != nil {
		t.Errorf("Accounts after remove = %v", m.Accounts(kate))
	}
}

func TestWriteToRoundTrip(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if m2.Len() != m.Len() {
		t.Fatalf("round trip lost entries")
	}
	for _, id := range m.Identities() {
		want := strings.Join(m.Accounts(id), ",")
		got := strings.Join(m2.Accounts(id), ",")
		if want != got {
			t.Errorf("%s: %q != %q", id, got, want)
		}
	}
}

// Property: any set of valid identities round-trips through the file
// format with membership preserved.
func TestQuickRoundTrip(t *testing.T) {
	f := func(users []uint16) bool {
		m := New()
		for _, u := range users {
			dn := gsi.DN("/O=Grid/CN=user" + itoa(int(u)))
			m.Add(dn, "acct"+itoa(int(u)%7))
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			return false
		}
		m2, err := Parse(&buf)
		if err != nil {
			return false
		}
		for _, id := range m.Identities() {
			if m2.Accounts(id) == nil {
				return false
			}
		}
		return m.Len() == m2.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Remove deletes the entry for identity.
func (m *Map) Remove(identity gsi.DN) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.entries, identity)
}
