// Package analysis is a dependency-free reimplementation of the small
// slice of golang.org/x/tools/go/analysis that this repository's
// authorization-safety linters (cmd/authlint) need: an Analyzer is a
// named check with a Run function, a Pass hands it one type-checked
// package, and diagnostics are plain positions plus messages. A
// whole-module check sets RunModule instead and gets every package's
// pass at once.
//
// The repository deliberately has no external Go dependencies (go.mod
// lists none), so instead of importing x/tools this package rebuilds
// the same analyzer/driver contract on the standard library: go/ast
// and go/types for syntax and types, and `go list -export` for import
// resolution (see loader.go). Analyzers written against this package
// mirror the upstream shape closely enough that migrating them to
// x/tools later is mechanical.
//
// # Suppression
//
// A diagnostic can be waived for an audited exception with a comment
// on the flagged line or the line directly above it:
//
//	//authlint:ignore <analyzer> <reason>
//
// The analyzer name must match and the reason must be non-empty — a
// suppression without a recorded justification is itself an error.
// A whole file is exempted from one analyzer with
//
//	//authlint:file-ignore <analyzer> <reason>
//
// docs/ANALYSIS.md describes each analyzer, the invariant it enforces
// and the convention for auditing suppressions in review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments (a short lowercase word, e.g. "pdpcap").
	Name string
	// Doc states the invariant the analyzer enforces, first line short.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Report or pass.Reportf. The result value is unused by the
	// driver (kept for upstream API parity).
	Run func(pass *Pass) (any, error)
	// RunModule, set instead of Run, makes a whole-module check: it
	// receives one pass per loaded package in a single call, so it can
	// relate declarations in one package to uses in all the others,
	// and reports each finding through the pass of the package that
	// holds it (so that package's suppressions apply).
	RunModule func(passes []*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.diags = append(p.diags, d) }

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppression is one parsed authlint:ignore directive.
type suppression struct {
	file      string
	line      int  // line the directive ends on
	wholeFile bool // set by the file-ignore directive form
	analyzers map[string]bool
}

// BadSuppression reports a malformed suppression directive (missing
// analyzer name or missing reason); these fail the lint run so an
// unjustified waiver cannot slip in.
type BadSuppression struct {
	Pos token.Pos
	Msg string
}

// parseSuppressions scans the package's comments for authlint
// directives.
func parseSuppressions(fset *token.FileSet, files []*ast.File) ([]suppression, []BadSuppression) {
	var sups []suppression
	var bad []BadSuppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				var wholeFile bool
				switch {
				case strings.HasPrefix(text, "authlint:ignore"):
					text = strings.TrimPrefix(text, "authlint:ignore")
				case strings.HasPrefix(text, "authlint:file-ignore"):
					text = strings.TrimPrefix(text, "authlint:file-ignore")
					wholeFile = true
				default:
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, BadSuppression{Pos: c.Pos(),
						Msg: "authlint suppression needs an analyzer name and a reason: //authlint:ignore <analyzer> <reason>"})
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(fields[0], ",") {
					names[n] = true
				}
				pos := fset.Position(c.End())
				sups = append(sups, suppression{
					file:      pos.Filename,
					line:      pos.Line,
					wholeFile: wholeFile,
					analyzers: names,
				})
			}
		}
	}
	return sups, bad
}

// suppressed reports whether a diagnostic from analyzer at pos is
// covered by a directive on the same line, the line above, or a
// file-ignore.
func suppressed(sups []suppression, fset *token.FileSet, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, s := range sups {
		if !s.analyzers[analyzer] || s.file != p.Filename {
			continue
		}
		if s.wholeFile || s.line == p.Line || s.line == p.Line-1 {
			return true
		}
	}
	return false
}

// Run applies one analyzer to the loaded packages and returns each
// package's findings, index-aligned with pkgs, with suppressions
// already filtered out. Malformed suppression directives are returned
// as diagnostics too — a waiver with no reason must not silently
// succeed.
func Run(a *Analyzer, pkgs []*Package) ([][]Diagnostic, error) {
	passes := make([]*Pass, len(pkgs))
	for i, pkg := range pkgs {
		passes[i] = &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
	}
	if a.RunModule != nil {
		if err := a.RunModule(passes); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	} else {
		for _, pass := range passes {
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pass.Pkg.Path(), err)
			}
		}
	}
	out := make([][]Diagnostic, len(passes))
	for i, pass := range passes {
		sups, bad := parseSuppressions(pass.Fset, pass.Files)
		for _, d := range pass.diags {
			if !suppressed(sups, pass.Fset, a.Name, d.Pos) {
				out[i] = append(out[i], d)
			}
		}
		for _, b := range bad {
			out[i] = append(out[i], Diagnostic{Pos: b.Pos, Message: b.Msg})
		}
		sortDiagnostics(pass.Fset, out[i])
	}
	return out, nil
}

// sortDiagnostics orders findings by file position for stable output.
func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
