package rsl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, in string) Node {
	t.Helper()
	n, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	return n
}

func TestParseSimpleConjunction(t *testing.T) {
	n := mustParse(t, `&(executable=/bin/date)(count=4)`)
	b, ok := n.(*Boolean)
	if !ok || b.Op != And {
		t.Fatalf("got %T %v, want And boolean", n, n)
	}
	if len(b.Children) != 2 {
		t.Fatalf("got %d children, want 2", len(b.Children))
	}
	r := b.Children[0].(*Relation)
	if r.Attribute != "executable" || r.Op != OpEq || r.Values[0].Literal != "/bin/date" {
		t.Errorf("first relation = %+v", r)
	}
}

func TestParseRelationOperators(t *testing.T) {
	tests := []struct {
		in   string
		attr string
		op   Op
		val  string
	}{
		{`(count=4)`, "count", OpEq, "4"},
		{`(count!=4)`, "count", OpNeq, "4"},
		{`(count<4)`, "count", OpLt, "4"},
		{`(count<=4)`, "count", OpLe, "4"},
		{`(count>4)`, "count", OpGt, "4"},
		{`(count>=4)`, "count", OpGe, "4"},
		{`(count = 4)`, "count", OpEq, "4"},
		{`(COUNT=4)`, "count", OpEq, "4"},
	}
	for _, tt := range tests {
		n := mustParse(t, tt.in)
		r, ok := n.(*Relation)
		if !ok {
			t.Fatalf("%q: got %T, want *Relation", tt.in, n)
		}
		if r.Attribute != tt.attr || r.Op != tt.op || r.Values[0].Literal != tt.val {
			t.Errorf("%q: got %+v", tt.in, r)
		}
	}
}

func TestParseQuotedValues(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{`(directory="/sandbox/my test")`, "/sandbox/my test"},
		{`(directory='/tmp/a b')`, "/tmp/a b"},
		{`(label="say ""hi""")`, `say "hi"`},
		{`(label="")`, ""},
	}
	for _, tt := range tests {
		r := mustParse(t, tt.in).(*Relation)
		if got := r.Values[0].Literal; got != tt.want {
			t.Errorf("%q: got %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestParseMultiValue(t *testing.T) {
	r := mustParse(t, `(arguments=a b "c d")`).(*Relation)
	if len(r.Values) != 3 {
		t.Fatalf("got %d values, want 3", len(r.Values))
	}
	want := []string{"a", "b", "c d"}
	for i, w := range want {
		if r.Values[i].Literal != w {
			t.Errorf("value[%d] = %q, want %q", i, r.Values[i].Literal, w)
		}
	}
}

func TestParseVariables(t *testing.T) {
	r := mustParse(t, `(stdout=$(HOME))`).(*Relation)
	if !r.Values[0].IsVariable() || r.Values[0].Variable != "HOME" {
		t.Fatalf("got %+v, want variable HOME", r.Values[0])
	}
	got := r.Values[0].Resolve(map[string]string{"HOME": "/home/kate"})
	if got != "/home/kate" {
		t.Errorf("Resolve = %q", got)
	}
	if got := r.Values[0].Resolve(nil); got != "" {
		t.Errorf("Resolve(nil) = %q, want empty", got)
	}
}

func TestParseNested(t *testing.T) {
	n := mustParse(t, `&(executable=a)(|(count=1)(count=2))`)
	b := n.(*Boolean)
	if len(b.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(b.Children))
	}
	inner, ok := b.Children[1].(*Boolean)
	if !ok || inner.Op != Or {
		t.Fatalf("inner = %#v, want Or boolean", b.Children[1])
	}
}

func TestParseMultiRequest(t *testing.T) {
	n := mustParse(t, `+(&(executable=a))(&(executable=b))`)
	b, ok := n.(*Boolean)
	if !ok || b.Op != Multi || len(b.Children) != 2 {
		t.Fatalf("got %#v, want a Multi boolean of 2", n)
	}
	for i, c := range b.Children {
		if part, ok := c.(*Boolean); !ok || part.Op != And {
			t.Errorf("part %d = %#v, want an And boolean", i, c)
		}
	}
}

func TestParseImplicitConjunction(t *testing.T) {
	n := mustParse(t, `(executable=a)(count=2)`)
	b, ok := n.(*Boolean)
	if !ok || b.Op != And || len(b.Children) != 2 {
		t.Fatalf("got %#v, want implicit And of 2", n)
	}
	// A single bare relation parses to the relation itself.
	if _, ok := mustParse(t, `(executable=a)`).(*Relation); !ok {
		t.Errorf("single relation should not be wrapped")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`&`,
		`(`,
		`()`,
		`(count)`,
		`(count=)`,
		`(count!4)`,
		`(count=4`,
		`(count=4))`,
		`(="x")`,
		`(count="unterminated)`,
		`(stdout=$HOME)`,
		`(stdout=$()`,
		`(stdout=$())`,
		`garbage`,
		`&(a=1)trailing`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q): error %v is not a *SyntaxError", in, err)
			}
		}
	}
}

func TestSpecBasics(t *testing.T) {
	s, err := ParseSpec(`&(executable=test1)(directory=/sandbox/test)(count=3)(jobtag=ADS)`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has("executable") || s.Get("executable") != "test1" {
		t.Errorf("executable = %q", s.Get("executable"))
	}
	if s.Has("queue") {
		t.Errorf("queue unexpectedly present")
	}
	if got := s.Get("queue"); got != "" {
		t.Errorf("Get(absent) = %q, want empty", got)
	}
	wantAttrs := []string{"count", "directory", "executable", "jobtag"}
	got := s.Attributes()
	if len(got) != len(wantAttrs) {
		t.Fatalf("Attributes = %v", got)
	}
	for i := range wantAttrs {
		if got[i] != wantAttrs[i] {
			t.Errorf("Attributes[%d] = %q, want %q", i, got[i], wantAttrs[i])
		}
	}
}

func TestSpecRejectsNonConjunctive(t *testing.T) {
	for _, in := range []string{
		`|(executable=a)(executable=b)`,
		`+(&(executable=a))(&(executable=b))`,
		`&(count<4)`,
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q): expected error", in)
		}
	}
}

func TestSpecCloneIsolation(t *testing.T) {
	s := NewSpec().Set("executable", "a").Set("arguments", "x", "y")
	c := s.Clone()
	c.Set("executable", "b")
	c.Add("arguments", "z")
	if s.Get("executable") != "a" {
		t.Errorf("clone mutated original executable")
	}
	if len(s.Values("arguments")) != 2 {
		t.Errorf("clone mutated original arguments")
	}
	if !s.Equal(s.Clone()) {
		t.Errorf("spec not Equal to its clone")
	}
	if s.Equal(c) {
		t.Errorf("distinct specs reported Equal")
	}
}

func TestSpecValuesCopies(t *testing.T) {
	s := NewSpec().Set("arguments", "x", "y")
	vs := s.Values("arguments")
	vs[0] = "mutated"
	if s.Get("arguments") != "x" {
		t.Errorf("Values leaked internal slice")
	}
}

func TestSpecUnparseRoundTrip(t *testing.T) {
	in := `&(arguments=a "b c")(count=4)(executable=/bin/date)`
	s, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Unparse()
	s2, err := ParseSpec(out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if !s.Equal(s2) {
		t.Errorf("round trip changed spec: %q vs %q", s, s2)
	}
}

func TestSpecDelete(t *testing.T) {
	s := NewSpec().Set("executable", "a").Set("count", "2")
	s.Delete("COUNT")
	if s.Has("count") {
		t.Errorf("Delete did not remove attribute")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		lhs  string
		op   Op
		rhs  string
		want bool
	}{
		{"3", OpLt, "4", true},
		{"10", OpLt, "4", false},
		{"10", OpGt, "4", true},  // numeric, not lexicographic
		{"10", OpLt, "9", false}, // numeric, lexicographic would say true
		{"4", OpLe, "4", true},
		{"4", OpGe, "4", true},
		{"4", OpEq, "4.0", true}, // numeric equality
		{"a", OpLt, "b", true},   // string fallback
		{"abc", OpEq, "abc", true},
		{"abc", OpNeq, "abd", true},
		{"3", OpNeq, "3", false},
	}
	for _, tt := range tests {
		if got := Compare(tt.lhs, tt.op, tt.rhs); got != tt.want {
			t.Errorf("Compare(%q %s %q) = %v, want %v", tt.lhs, tt.op, tt.rhs, got, tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	ok, err := ParseSpec(`&(executable=test1)(count=4)`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(ok); err != nil {
		t.Errorf("Validate(ok) = %v", err)
	}
	missing := NewSpec().Set("count", "4")
	if err := Validate(missing); err == nil {
		t.Errorf("Validate should require executable")
	}
	bad := NewSpec().Set("executable", "a").Set("count", "many")
	if err := Validate(bad); err == nil {
		t.Errorf("Validate should reject non-integer count")
	}
	neg := NewSpec().Set("executable", "a").Set("maxtime", "-1")
	if err := Validate(neg); err == nil {
		t.Errorf("Validate should reject negative maxtime")
	}
}

func TestUnparseQuoting(t *testing.T) {
	r := &Relation{Attribute: "directory", Op: OpEq, Values: []Value{Lit("/a b/c")}}
	got := r.Unparse()
	if got != `(directory="/a b/c")` {
		t.Errorf("Unparse = %q", got)
	}
	n, err := Parse(got)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if n.(*Relation).Values[0].Literal != "/a b/c" {
		t.Errorf("round trip lost value")
	}
}

func TestBooleanUnparseNested(t *testing.T) {
	n := mustParse(t, `&(executable=a)(|(count=1)(count=2))`)
	out := n.Unparse()
	n2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if n2.Unparse() != out {
		t.Errorf("unparse not a fixed point: %q vs %q", out, n2.Unparse())
	}
}

// Property: any spec built from printable-literal attribute values
// survives an Unparse/ParseSpec round trip.
func TestQuickSpecRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		s := NewSpec().Set("executable", "x")
		for i, v := range vals {
			if strings.ContainsAny(v, "\x00") || !isPrintable(v) {
				continue
			}
			attr := "attr" + string(rune('a'+i%26))
			s.Add(attr, v)
		}
		s2, err := ParseSpec(s.Unparse())
		if err != nil {
			t.Logf("spec %q: %v", s.Unparse(), err)
			return false
		}
		return s.Equal(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func isPrintable(s string) bool {
	for _, r := range s {
		if r < 0x20 || r == 0x7f {
			return false
		}
	}
	return true
}

// Property: Compare is antisymmetric for strict orders on integers.
func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b int16) bool {
		la, lb := itoa(int(a)), itoa(int(b))
		lt := Compare(la, OpLt, lb)
		gt := Compare(la, OpGt, lb)
		eq := Compare(la, OpEq, lb)
		// Exactly one of <, >, = holds.
		n := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// Clone returns a deep copy of the spec.
func (s *Spec) Clone() *Spec {
	c := &Spec{attrs: make(map[string][]string, len(s.attrs))}
	for k, vs := range s.attrs {
		c.attrs[k] = append([]string(nil), vs...)
	}
	return c
}

// Equal reports whether two specs contain the same attributes and values
// in the same order.
func (s *Spec) Equal(o *Spec) bool {
	if s.Len() != o.Len() {
		return false
	}
	for k, vs := range s.attrs {
		ovs, ok := o.attrs[k]
		if !ok || len(ovs) != len(vs) {
			return false
		}
		for i := range vs {
			if vs[i] != ovs[i] {
				return false
			}
		}
	}
	return true
}
