// Package analysistest runs an analyzer over GOPATH-style fixture
// packages and checks its diagnostics against // want comments, the
// same golden-test contract as x/tools/go/analysis/analysistest (see
// the internal/analysis package doc for why this is a stdlib-only
// reimplementation).
//
// A fixture line that should be flagged carries an expectation whose
// argument is a regular expression the diagnostic message must match:
//
//	p.mu.Lock()
//	time.Sleep(time.Second) // want `blocking call .* while .* is held`
//
// A line that already ends in a // comment (an authlint directive, say)
// carries its expectation in a block comment: /* want `...` */.
//
// Every diagnostic must match an expectation on its exact line and
// every expectation must be matched — unflagged positives and
// unexpected findings both fail the test.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gridauth/internal/analysis"
)

//authlint:file-ignore deadexport golden-fixture runner that only the analyzers' _test.go files import

// expectation is one // want pattern awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture packages under srcRoot, applies the analyzer
// to them together (so a whole-module check sees every one), and
// reports mismatches between diagnostics and // want comments.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	loader := analysis.NewLoader("")
	loader.SrcRoot = srcRoot
	pkgs, err := loader.LoadSource(paths...)
	if err != nil {
		t.Fatalf("load fixtures %v: %v", paths, err)
	}
	results, err := analysis.Run(a, pkgs)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for i, pkg := range pkgs {
		expects, err := collectExpectations(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range results[i] {
			pos := pkg.Fset.Position(d.Pos)
			if e := findExpectation(expects, pos.Filename, pos.Line, d.Message); e != nil {
				e.matched = true
				continue
			}
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
		for _, e := range expects {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
			}
		}
	}
}

// findExpectation returns an unmatched expectation on file:line whose
// pattern matches msg.
func findExpectation(expects []*expectation, file string, line int, msg string) *expectation {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.rx.MatchString(msg) {
			return e
		}
	}
	return nil
}

// collectExpectations parses // want comments from a fixture package.
func collectExpectations(pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if strings.HasPrefix(c.Text, "/*") {
					text = strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
				}
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := parsePatterns(strings.TrimSpace(text[idx+len("want "):]))
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, p := range patterns {
					rx, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, rx: rx, raw: p})
				}
			}
		}
	}
	return out, nil
}

// parsePatterns splits a want payload into its quoted regexps; both
// `backquoted` and "double-quoted" forms are accepted.
func parsePatterns(s string) ([]string, error) {
	var out []string
	for s != "" {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated ` in want payload %q", s)
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		case '"':
			// Find the closing quote, honouring escapes.
			i := 1
			for i < len(s) && (s[i] != '"' || s[i-1] == '\\') {
				i++
			}
			if i >= len(s) {
				return nil, fmt.Errorf("unterminated \" in want payload %q", s)
			}
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %q: %v", s[:i+1], err)
			}
			out = append(out, unq)
			s = s[i+1:]
		default:
			return nil, fmt.Errorf("want payload must be a quoted regexp, got %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want payload")
	}
	return out, nil
}
