package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

// loadSrc type-checks one dependency-free source file into a Package.
func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tpkg, err := (&types.Config{}).Check("fix", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{Path: "fix", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// flagall reports every function declaration at its name.
var flagall = &Analyzer{
	Name: "flagall",
	Doc:  "flags every function declaration (test analyzer)",
	Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Name.Pos(), "flagged %s", fd.Name.Name)
				}
			}
		}
		return nil, nil
	},
}

// run1 applies a to one package.
func run1(t *testing.T, a *Analyzer, pkg *Package) []Diagnostic {
	t.Helper()
	diags, err := Run(a, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	return diags[0]
}

func render(pkg *Package, diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%d: %s", pkg.Fset.Position(d.Pos).Line, d.Message))
	}
	return out
}

func TestSuppressionFiltering(t *testing.T) {
	pkg := loadSrc(t, `package fix

func Plain() {}

//authlint:ignore flagall covered by the integration suite
func Waived() {}

func Inline() {} //authlint:ignore flagall audited in review

//authlint:ignore otherlint reason that names a different analyzer
func WrongAnalyzer() {}

//authlint:ignore flagall
func MissingReason() {}
`)
	diags := run1(t, flagall, pkg)
	want := []string{
		"3: flagged Plain",
		"11: flagged WrongAnalyzer",
		"13: authlint suppression needs an analyzer name and a reason: //authlint:ignore <analyzer> <reason>",
		"14: flagged MissingReason",
	}
	if got := render(pkg, diags); !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics:\n got %q\nwant %q", got, want)
	}
}

func TestFileIgnore(t *testing.T) {
	pkg := loadSrc(t, `package fix

//authlint:file-ignore flagall generated shim, audited as a unit

func One() {}

func Two() {}
`)
	diags := run1(t, flagall, pkg)
	if len(diags) != 0 {
		t.Errorf("file-ignore left %d diagnostics: %q", len(diags), render(pkg, diags))
	}
}

func TestMultiAnalyzerSuppression(t *testing.T) {
	pkg := loadSrc(t, `package fix

//authlint:ignore flagall,otherlint one waiver naming two analyzers
func Both() {}

//authlint:ignore otherlint waiver for a different analyzer only
func OtherOnly() {}
`)
	diags := run1(t, flagall, pkg)
	want := []string{"7: flagged OtherOnly"}
	if got := render(pkg, diags); !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics:\n got %q\nwant %q", got, want)
	}
}
