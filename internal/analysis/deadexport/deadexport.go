// Package deadexport keeps the module free of exported surface that
// only tests reach. An exported package-level func, var or const
// declared in a non-test file of an internal/ package must be
// referenced from some non-test file in the module — another package,
// a command, bench/, an example or the declaring package itself.
// internal/ packages cannot be imported from outside the module, so
// an identifier that no non-test file names is either dead or a test
// helper living in production code.
//
// Each finding has three ways out: delete the identifier, move it into
// a _test.go file of the declaring package (an export_test.go-style
// file still serves that package's external tests), or keep it with
//
//	//authlint:ignore deadexport <the tests that need it>
//
// when tests in other packages need it. Methods, types and struct
// fields are out of scope: matching methods against interfaces does
// not survive the loader's source/export-data split.
package deadexport

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"

	"gridauth/internal/analysis"
)

// Analyzer reports exported internal/ identifiers with no non-test
// reference anywhere in the loaded packages.
var Analyzer = &analysis.Analyzer{
	Name:      "deadexport",
	Doc:       "every exported package-level func, var or const in an internal/ package needs a reference from a non-test file in the module; delete it, move it into the _test.go file that uses it, or waive it naming the tests that need it",
	RunModule: run,
}

// ref names a package-level object by import path and name. Uses are
// matched on this key, never on types.Object identity: in module mode
// a package is type-checked from source while its importers see it
// through export data, so the object a caller uses is a different
// value from the one the declaring package defines.
type ref struct{ path, name string }

func run(passes []*analysis.Pass) error {
	used := map[ref]bool{}
	for _, pass := range passes {
		tests := testFiles(pass)
		for id, obj := range pass.TypesInfo.Uses {
			pkg := obj.Pkg()
			if pkg == nil || pkg.Scope().Lookup(obj.Name()) != obj || within(tests, id.Pos()) {
				continue
			}
			used[ref{pkg.Path(), obj.Name()}] = true
		}
	}
	for _, pass := range passes {
		path := pass.Pkg.Path()
		if !slices.Contains(strings.Split(path, "/"), "internal") {
			continue
		}
		tests := testFiles(pass)
		for _, f := range pass.Files {
			if slices.Contains(tests, f) {
				continue
			}
			for _, decl := range f.Decls {
				kind, names := exported(decl)
				for _, id := range names {
					if !used[ref{path, id.Name}] {
						pass.Reportf(id.Pos(), "exported %s %s is referenced by no non-test file: delete it, move it into a _test.go file of its package, or waive it with //authlint:ignore deadexport <the tests that need it>", kind, id.Name)
					}
				}
			}
		}
	}
	return nil
}

// exported returns the kind and the exported names a top-level
// declaration introduces, counting funcs, vars and consts only.
func exported(decl ast.Decl) (string, []*ast.Ident) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.IsExported() {
			return "func", []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		if d.Tok != token.VAR && d.Tok != token.CONST {
			return "", nil
		}
		var names []*ast.Ident
		for _, spec := range d.Specs {
			for _, id := range spec.(*ast.ValueSpec).Names {
				if id.IsExported() {
					names = append(names, id)
				}
			}
		}
		return d.Tok.String(), names
	}
	return "", nil
}

// testFiles returns the package's _test.go files. The module loader
// never parses them; fixture packages may, and their references must
// not count.
func testFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.File(f.Pos()).Name(), "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// within reports whether pos lies in one of files.
func within(files []*ast.File, pos token.Pos) bool {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return true
		}
	}
	return false
}
