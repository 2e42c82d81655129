package rsl

import (
	"errors"
	"strings"
	"testing"
)

// fuzzSeeds are valid and near-valid RSL specifications covering every
// syntactic construct: the three boolean operators, nesting, implicit
// conjunction, all six relation operators, multi-value relations,
// quoting (both styles, with doubled-quote escapes) and variable
// references.
var fuzzSeeds = []string{
	"&(executable=/bin/date)(count=4)",
	"|(queue=fast)(queue=slow)",
	"+(&(executable=a))(&(executable=b))",
	"(executable=/bin/true)",
	"(a=1)(b=2)",
	"&(count>=2)(count<=8)(maxtime<60)(queue!=fast)(x>1)",
	`&(arguments=a "b c" 'd''e')`,
	`&(dir=$(HOME))(executable=$(GLOBUS_LOCATION))`,
	"&(x=\"\")",
	"&(a=1)(|(b=2)(c=3))",
	"&(&(a=1))",
	"& (a = 1) \t\n (b = 2)",
	"",
	"&",
	"&(a)",
	"&(a=)",
	"&(a=1",
	"&(a=$)",
	"&(a=$(x)",
	"&(a=\"unterminated",
}

// FuzzParse checks the parser on arbitrary input for two properties:
// it never panics, and a successful parse is a fixed point under
// Unparse — re-parsing the canonical rendering succeeds and renders
// identically. An authorization spec whose canonical form is unstable
// would change spelling, or meaning, each time it is rendered into an
// audit record or a policy file is written back (cmd/voadmin).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		node, err := Parse(input)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q) returned a non-SyntaxError: %v", input, err)
			}
			if se.Offset < 0 || se.Offset > len(input) {
				t.Fatalf("Parse(%q): error offset %d out of range [0,%d]", input, se.Offset, len(input))
			}
			return
		}
		canon := node.Unparse()
		node2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded but its unparse %q does not re-parse: %v", input, canon, err)
		}
		if got := node2.Unparse(); got != canon {
			t.Fatalf("unparse not a fixed point: %q -> %q -> %q", input, canon, got)
		}
	})
}

// FuzzParseSpec checks the job-description flattening path: no panics,
// flattening only ever fails with a descriptive error, and a flattened
// spec's canonical form survives a ParseSpec round trip. This is the
// exact path untrusted job requests take into the policy engine
// (gram handleJobRequest → rsl.ParseSpec → policy evaluation).
func FuzzParseSpec(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSpec(input)
		if err != nil {
			if !strings.Contains(err.Error(), "rsl") {
				t.Fatalf("ParseSpec(%q) error lost its package prefix: %v", input, err)
			}
			return
		}
		canon := spec.Unparse()
		spec2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) succeeded but canonical form %q does not re-parse: %v", input, canon, err)
		}
		if got := spec2.Unparse(); got != canon {
			t.Fatalf("canonical form not stable: %q -> %q -> %q", input, canon, got)
		}
		if !spec.Equal(spec2) {
			t.Fatalf("round-tripped spec differs: %q vs %q", spec, spec2)
		}
	})
}
