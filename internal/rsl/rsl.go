// Package rsl implements the Globus Toolkit 2 Resource Specification
// Language (RSL v1.0) as used by GRAM job descriptions and, in this
// repository, by the fine-grain authorization policy language layered on
// top of it.
//
// RSL is an attribute-value language. A specification is a boolean
// combination of relations:
//
//	&(executable=/bin/date)(count=4)(maxMemory>=64)
//
// The operators are & (conjunction), | (disjunction) and + (multi-request).
// Relations compare an attribute against one or more values using one of
// =, !=, <, <=, > or >=. Values are unquoted literals, quoted strings
// ("..." or '...', with doubled quotes as escapes) or variable references
// of the form $(NAME).
//
// Attribute names are case-insensitive; this package canonicalizes them to
// lower case, matching GT2 behaviour.
package rsl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Op identifies a relation operator.
type Op int

// Relation operators in GT2 RSL.
const (
	OpEq Op = iota + 1
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the RSL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// BoolOp identifies a boolean combination operator.
type BoolOp int

// Boolean operators in GT2 RSL.
const (
	And BoolOp = iota + 1
	Or
	Multi
)

// String returns the RSL spelling of the boolean operator.
func (b BoolOp) String() string {
	switch b {
	case And:
		return "&"
	case Or:
		return "|"
	case Multi:
		return "+"
	default:
		return fmt.Sprintf("BoolOp(%d)", int(b))
	}
}

// Node is a node of an RSL syntax tree: either a *Boolean or a *Relation.
type Node interface {
	// Unparse renders the node in canonical RSL syntax.
	Unparse() string
}

// Boolean is a boolean combination of sub-specifications.
type Boolean struct {
	Op       BoolOp
	Children []Node
}

// Unparse renders the boolean in canonical RSL syntax.
func (b *Boolean) Unparse() string {
	var sb strings.Builder
	sb.WriteString(b.Op.String())
	for _, c := range b.Children {
		if _, ok := c.(*Relation); ok {
			sb.WriteString(c.Unparse())
			continue
		}
		sb.WriteString("(")
		sb.WriteString(c.Unparse())
		sb.WriteString(")")
	}
	return sb.String()
}

// Relation is a single attribute comparison, e.g. (count<4) or
// (arguments = a b c).
type Relation struct {
	Attribute string
	Op        Op
	Values    []Value
}

// Unparse renders the relation in canonical RSL syntax.
func (r *Relation) Unparse() string {
	var buf [128]byte
	return string(r.AppendUnparse(buf[:0]))
}

// AppendUnparse appends the relation's Unparse text to dst, so a caller
// that renders into a buffer of its own pays no allocation.
func (r *Relation) AppendUnparse(dst []byte) []byte {
	dst = append(dst, '(')
	dst = append(dst, r.Attribute...)
	dst = append(dst, r.Op.String()...)
	for i, v := range r.Values {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = v.appendUnparse(dst)
	}
	return append(dst, ')')
}

// Value is a single RSL value: a literal or a variable reference.
type Value struct {
	// Literal holds the value text when Variable is empty.
	Literal string
	// Variable names a $(NAME) reference to be resolved at evaluation time.
	Variable string
}

// Lit returns a literal Value.
func Lit(s string) Value { return Value{Literal: s} }

// Var returns a variable-reference Value.
func Var(name string) Value { return Value{Variable: name} }

// IsVariable reports whether the value is a variable reference.
func (v Value) IsVariable() bool { return v.Variable != "" }

// Unparse renders the value, quoting when necessary.
func (v Value) Unparse() string {
	if !v.IsVariable() && !needsQuotes(v.Literal) {
		return v.Literal
	}
	return string(v.appendUnparse(nil))
}

// appendUnparse appends the value's Unparse text to dst.
func (v Value) appendUnparse(dst []byte) []byte {
	if v.IsVariable() {
		dst = append(dst, "$("...)
		dst = append(dst, v.Variable...)
		return append(dst, ')')
	}
	if !needsQuotes(v.Literal) {
		return append(dst, v.Literal...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(v.Literal); i++ {
		if c := v.Literal[i]; c == '"' {
			dst = append(dst, '"', '"')
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// needsQuotes reports whether a literal must be quoted to read back as
// itself. NUL is quoted too: the parser reads a bare one as end of input.
func needsQuotes(lit string) bool {
	return lit == "" || strings.ContainsAny(lit, " \t\r\n()=<>!\"'$\x00")
}

// Resolve returns the value's text, substituting variables from vars.
// Unbound variables resolve to the empty string.
func (v Value) Resolve(vars map[string]string) string {
	if v.IsVariable() {
		return vars[v.Variable]
	}
	return v.Literal
}

// SyntaxError describes an RSL parse failure with its input offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("rsl: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Parse parses an RSL specification. The top level may be a bare relation
// list, which is treated as an implicit conjunction, matching how GT2
// tools accept "(executable=a)(count=2)".
func Parse(input string) (Node, error) {
	p := &parser{src: input}
	p.skipSpace()
	node, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, &SyntaxError{Offset: p.pos, Msg: "trailing input"}
	}
	return node, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

// parseSpec parses either an explicit boolean (&, |, +) or an implicit
// conjunction of parenthesized items.
func (p *parser) parseSpec() (Node, error) {
	p.skipSpace()
	switch p.peek() {
	case '&', '|', '+':
		op := And
		switch p.src[p.pos] {
		case '|':
			op = Or
		case '+':
			op = Multi
		}
		p.pos++
		children, err := p.parseItems()
		if err != nil {
			return nil, err
		}
		if len(children) == 0 {
			return nil, p.errf("empty %s specification", op)
		}
		return &Boolean{Op: op, Children: children}, nil
	case '(':
		children, err := p.parseItems()
		if err != nil {
			return nil, err
		}
		if len(children) == 1 {
			return children[0], nil
		}
		if len(children) == 0 {
			return nil, p.errf("empty specification")
		}
		return &Boolean{Op: And, Children: children}, nil
	case 0:
		return nil, p.errf("empty input")
	default:
		return nil, p.errf("expected '&', '|', '+' or '(', found %q", p.src[p.pos])
	}
}

// parseItems parses a sequence of parenthesized items: each is either a
// relation or a nested specification.
func (p *parser) parseItems() ([]Node, error) {
	var items []Node
	for {
		p.skipSpace()
		if p.peek() != '(' {
			return items, nil
		}
		p.pos++ // consume '('
		p.skipSpace()
		var (
			child Node
			err   error
		)
		switch p.peek() {
		case '&', '|', '+', '(':
			child, err = p.parseSpec()
		default:
			child, err = p.parseRelation()
		}
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errf("expected ')'")
		}
		p.pos++
		items = append(items, child)
	}
}

// parseRelation parses "attribute op value...". The opening '(' has been
// consumed; the closing ')' is left for the caller.
func (p *parser) parseRelation() (Node, error) {
	attr, err := p.parseWord()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	op, err := p.parseOp()
	if err != nil {
		return nil, err
	}
	var values []Value
	for {
		p.skipSpace()
		c := p.peek()
		if c == ')' || c == 0 {
			break
		}
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		values = append(values, v)
	}
	if len(values) == 0 {
		return nil, p.errf("relation %q has no value", attr)
	}
	return &Relation{Attribute: strings.ToLower(attr), Op: op, Values: values}, nil
}

func (p *parser) parseWord() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && isWordByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected attribute name")
	}
	return p.src[start:p.pos], nil
}

func isWordByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '_' || c == '-' || c == '.':
		return true
	default:
		return false
	}
}

func (p *parser) parseOp() (Op, error) {
	if p.pos >= len(p.src) {
		return 0, p.errf("expected relation operator")
	}
	switch p.src[p.pos] {
	case '=':
		p.pos++
		return OpEq, nil
	case '!':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '=' {
			p.pos += 2
			return OpNeq, nil
		}
		return 0, p.errf("expected '!='")
	case '<':
		p.pos++
		if p.peek() == '=' {
			p.pos++
			return OpLe, nil
		}
		return OpLt, nil
	case '>':
		p.pos++
		if p.peek() == '=' {
			p.pos++
			return OpGe, nil
		}
		return OpGt, nil
	default:
		return 0, p.errf("expected relation operator, found %q", p.src[p.pos])
	}
}

func (p *parser) parseValue() (Value, error) {
	switch c := p.peek(); c {
	case '"', '\'':
		return p.parseQuoted(c)
	case '$':
		return p.parseVariable()
	default:
		start := p.pos
		for p.pos < len(p.src) && !isValueTerminator(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return Value{}, p.errf("expected value")
		}
		return Lit(p.src[start:p.pos]), nil
	}
}

func isValueTerminator(c byte) bool {
	switch c {
	case ' ', '\t', '\r', '\n', '(', ')', '"', '\'', '$':
		return true
	default:
		return false
	}
}

func (p *parser) parseQuoted(quote byte) (Value, error) {
	p.pos++ // opening quote
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == quote {
			// Doubled quote is an escaped literal quote.
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == quote {
				sb.WriteByte(quote)
				p.pos += 2
				continue
			}
			p.pos++
			return Lit(sb.String()), nil
		}
		sb.WriteByte(c)
		p.pos++
	}
	return Value{}, p.errf("unterminated quoted value")
}

func (p *parser) parseVariable() (Value, error) {
	p.pos++ // '$'
	if p.peek() != '(' {
		return Value{}, p.errf("expected '(' after '$'")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ')' {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return Value{}, p.errf("unterminated variable reference")
	}
	name := p.src[start:p.pos]
	p.pos++
	if name == "" {
		return Value{}, p.errf("empty variable name")
	}
	return Var(name), nil
}

// Spec is the canonical flattened form of a purely conjunctive, purely
// equality-relation RSL specification: the form GRAM job descriptions
// take. Attribute names are lower case. Each attribute maps to the list
// of values given for it.
type Spec struct {
	attrs map[string][]string
	// canon memoizes the canonical Unparse form; mutators clear it.
	// Atomic so concurrent readers of a shared, no-longer-mutated spec
	// (the supported sharing pattern) may race to fill it safely.
	canon atomic.Pointer[string]
}

// NewSpec returns an empty specification.
func NewSpec() *Spec {
	return &Spec{attrs: make(map[string][]string)}
}

// ParseSpec parses input and flattens it into a Spec. It fails if the
// specification uses disjunction, multi-requests or non-equality
// relations, since a job description must be a simple conjunction.
func ParseSpec(input string) (*Spec, error) {
	node, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return Flatten(node, nil)
}

// Flatten converts a conjunctive equality tree into a Spec, resolving
// variable references against vars.
func Flatten(node Node, vars map[string]string) (*Spec, error) {
	s := NewSpec()
	if err := flattenInto(s, node, vars); err != nil {
		return nil, err
	}
	return s, nil
}

func flattenInto(s *Spec, node Node, vars map[string]string) error {
	switch n := node.(type) {
	case *Relation:
		if n.Op != OpEq {
			return fmt.Errorf("rsl: job description may only use '=', attribute %q uses %q", n.Attribute, n.Op)
		}
		for _, v := range n.Values {
			s.Add(n.Attribute, v.Resolve(vars))
		}
		return nil
	case *Boolean:
		if n.Op != And {
			return fmt.Errorf("rsl: job description may not use %q", n.Op)
		}
		for _, c := range n.Children {
			if err := flattenInto(s, c, vars); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("rsl: unknown node type %T", node)
	}
}

// Add appends a value for an attribute. The attribute name is
// canonicalized to lower case.
func (s *Spec) Add(attr, value string) *Spec {
	attr = strings.ToLower(attr)
	s.attrs[attr] = append(s.attrs[attr], value)
	s.canon.Store(nil)
	return s
}

// Set replaces the values of an attribute.
func (s *Spec) Set(attr string, values ...string) *Spec {
	attr = strings.ToLower(attr)
	s.attrs[attr] = append([]string(nil), values...)
	s.canon.Store(nil)
	return s
}

// Delete removes an attribute.
func (s *Spec) Delete(attr string) {
	delete(s.attrs, strings.ToLower(attr))
	s.canon.Store(nil)
}

// Has reports whether the attribute is present with at least one value.
func (s *Spec) Has(attr string) bool {
	return len(s.attrs[strings.ToLower(attr)]) > 0
}

// Get returns the first value of the attribute, or "" when absent.
func (s *Spec) Get(attr string) string {
	vs := s.attrs[strings.ToLower(attr)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// Values returns a copy of all values of the attribute.
func (s *Spec) Values(attr string) []string {
	vs := s.attrs[strings.ToLower(attr)]
	if len(vs) == 0 {
		return nil
	}
	return append([]string(nil), vs...)
}

// RefLower returns the attribute's values without copying, for an
// attribute name the caller guarantees is already lower case, skipping
// the case fold — the compiled policy engine's per-clause lookup, which
// would otherwise pay the allocation Values makes. The returned slice
// is shared with the spec: callers must not modify it, and it goes
// stale if the spec is mutated afterwards.
func (s *Spec) RefLower(attr string) []string {
	return s.attrs[attr]
}

// Attributes returns the sorted attribute names present in the spec.
func (s *Spec) Attributes() []string {
	names := make([]string, 0, len(s.attrs))
	for k := range s.attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of attributes in the spec.
func (s *Spec) Len() int { return len(s.attrs) }

// Unparse renders the spec in canonical (sorted, conjunctive) RSL form.
// The form is memoized: repeated calls on an unmodified spec (one
// canonical digest per authorization layer, logging, caching) pay for
// the sort and rendering once.
func (s *Spec) Unparse() string {
	if p := s.canon.Load(); p != nil {
		return *p
	}
	var sb strings.Builder
	sb.WriteString("&")
	for _, attr := range s.Attributes() {
		sb.WriteString("(")
		sb.WriteString(attr)
		sb.WriteString("=")
		for i, v := range s.attrs[attr] {
			if i > 0 {
				sb.WriteString(" ")
			}
			sb.WriteString(Lit(v).Unparse())
		}
		sb.WriteString(")")
	}
	out := sb.String()
	s.canon.Store(&out)
	return out
}

// String implements fmt.Stringer.
func (s *Spec) String() string { return s.Unparse() }

// Compare evaluates "lhs op rhs" using numeric comparison when both sides
// parse as numbers and byte-wise string comparison otherwise, matching how
// GT2 RSL compares values such as (count<4).
func Compare(lhs string, op Op, rhs string) bool {
	ln, lerr := strconv.ParseFloat(strings.TrimSpace(lhs), 64)
	rn, rerr := strconv.ParseFloat(strings.TrimSpace(rhs), 64)
	if lerr == nil && rerr == nil {
		switch op {
		case OpEq:
			return ln == rn
		case OpNeq:
			return ln != rn
		case OpLt:
			return ln < rn
		case OpLe:
			return ln <= rn
		case OpGt:
			return ln > rn
		case OpGe:
			return ln >= rn
		}
	}
	switch op {
	case OpEq:
		return lhs == rhs
	case OpNeq:
		return lhs != rhs
	case OpLt:
		return lhs < rhs
	case OpLe:
		return lhs <= rhs
	case OpGt:
		return lhs > rhs
	case OpGe:
		return lhs >= rhs
	default:
		return false
	}
}

// Validate checks a job-description Spec for the attributes GRAM requires
// and for well-formed numeric attributes. It returns nil when the spec is
// a plausible job request.
func Validate(s *Spec) error {
	if !s.Has("executable") {
		return fmt.Errorf("rsl: job description missing required attribute %q", "executable")
	}
	for _, attr := range []string{"count", "maxtime", "maxmemory", "minmemory", "hostcount"} {
		if !s.Has(attr) {
			continue
		}
		v := s.Get(attr)
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("rsl: attribute %q must be an integer, got %q", attr, v)
		}
		if n < 0 {
			return fmt.Errorf("rsl: attribute %q must be non-negative, got %d", attr, n)
		}
	}
	return nil
}
