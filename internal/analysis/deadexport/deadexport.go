// Package deadexport keeps the module free of exported surface that
// only tests reach. An exported package-level func, var or const, an
// exported method of a package-level type and an exported field of a
// package-level struct type, declared in a non-test file of an
// internal/ package, must be referenced from some non-test file in the
// module — another package, a command, bench/, an example or the
// declaring package itself. internal/ packages cannot be imported from
// outside the module, so an identifier that no non-test file names is
// either dead or a test helper living in production code.
//
// A method is referenced when non-test code selects it, directly or as
// a method promoted through an embedded field. A method is also kept
// when its name is the name of a method of any interface type declared
// in the loaded packages or in their transitive imports, standard
// library included: the call may come through that interface, and
// whether it does is not worth proving (a String method is called by
// fmt, an Error method by anything holding an error). A field is
// referenced when non-test code names it in a selector or as the key
// of a keyed composite literal.
//
// Each finding has three ways out: delete the identifier, move it into
// a _test.go file of the declaring package (an export_test.go-style
// file still serves that package's external tests), or keep it with
//
//	//authlint:ignore deadexport <the tests that need it>
//
// when tests in other packages need it. Types are out of scope.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"gridauth/internal/analysis"
)

// Analyzer reports exported internal/ identifiers with no non-test
// reference anywhere in the loaded packages.
var Analyzer = &analysis.Analyzer{
	Name:      "deadexport",
	Doc:       "every exported package-level func, var or const, method and struct field in an internal/ package needs a reference from a non-test file in the module (a method whose name some interface declares is kept); delete it, move it into the _test.go file that uses it, or waive it naming the tests that need it",
	RunModule: run,
}

// ref names a package-level object, or a method or field of a
// package-level type, by import path, type name (empty for a
// package-level object) and name. Uses are matched on this key, never
// on types.Object identity: in module mode a package is type-checked
// from source while its importers see it through export data, so the
// object a caller uses is a different value from the one the declaring
// package defines.
type ref struct{ path, typ, name string }

func run(passes []*analysis.Pass) error {
	used := uses(passes)
	ifaces := interfaceMethodNames(passes)
	for _, pass := range passes {
		if !slices.Contains(strings.Split(pass.Pkg.Path(), "/"), "internal") {
			continue
		}
		tests := testFiles(pass)
		owners := fieldOwners(pass)
		for id, obj := range pass.TypesInfo.Defs {
			if obj == nil || !id.IsExported() || within(tests, id.Pos()) {
				continue
			}
			kind, key, ok := declared(obj, owners)
			if !ok || used[key] || kind == "method" && ifaces[id.Name] {
				continue
			}
			name := key.name
			if key.typ != "" {
				name = key.typ + "." + name
			}
			pass.Reportf(id.Pos(), "exported %s %s is referenced by no non-test file: delete it, move it into a _test.go file of its package, or waive it with //authlint:ignore deadexport <the tests that need it>", kind, name)
		}
	}
	return nil
}

// uses returns the keys of everything non-test code references: a
// package-level object it names, a method or field it selects, a field
// it names as a keyed-literal key.
func uses(passes []*analysis.Pass) map[ref]bool {
	used := map[ref]bool{}
	for _, pass := range passes {
		tests := testFiles(pass)
		for id, obj := range pass.TypesInfo.Uses {
			pkg := obj.Pkg()
			if pkg == nil || pkg.Scope().Lookup(obj.Name()) != obj || within(tests, id.Pos()) {
				continue
			}
			used[ref{pkg.Path(), "", obj.Name()}] = true
		}
		for sel, s := range pass.TypesInfo.Selections {
			if r, ok := selected(s); ok && !within(tests, sel.Pos()) {
				used[r] = true
			}
		}
		for _, f := range pass.Files {
			if slices.Contains(tests, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					for _, r := range keyed(pass.TypesInfo, lit) {
						used[r] = true
					}
				}
				return true
			})
		}
	}
	return used
}

// declared returns the kind and key of an exported object a package
// defines, when it is in scope: a package-level func, var or const, a
// method of a package-level type, or a field of a package-level struct
// type.
func declared(obj types.Object, owners map[*types.Var]string) (string, ref, bool) {
	path := obj.Pkg().Path()
	top := obj.Parent() == obj.Pkg().Scope()
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			key, ok := member(recv.Type(), o.Name())
			return "method", key, ok
		}
		return "func", ref{path, "", o.Name()}, top
	case *types.Var:
		if o.IsField() {
			typ, ok := owners[o]
			return "field", ref{path, typ, o.Name()}, ok
		}
		return "var", ref{path, "", o.Name()}, top
	case *types.Const:
		return "const", ref{path, "", o.Name()}, top
	}
	return "", ref{}, false
}

// fieldOwners maps each field of the package's package-level struct
// types to its type's name, from the declarations whose type is a
// struct literal (a type defined as another named type shares that
// type's fields). Embedded fields are left out: they exist to promote
// their type's members.
func fieldOwners(pass *analysis.Pass) map[*types.Var]string {
	owners := map[*types.Var]string{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if _, ok := ts.Type.(*ast.StructType); !ok || ts.Assign.IsValid() {
					continue
				}
				st := pass.TypesInfo.Defs[ts.Name].Type().Underlying().(*types.Struct)
				for i := range st.NumFields() {
					if f := st.Field(i); !f.Embedded() {
						owners[f] = ts.Name.Name
					}
				}
			}
		}
	}
	return owners
}

// selected returns the key of the method or field a selector picks,
// when it belongs to a package-level named type. A promoted member is
// keyed by the type that declares it, not the one it was selected
// through.
func selected(s *types.Selection) (ref, bool) {
	switch obj := s.Obj().(type) {
	case *types.Func:
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil {
			return ref{}, false
		}
		return member(recv.Type(), obj.Name())
	case *types.Var:
		// Walk the embedded fields the index path goes through to the
		// struct that declares the field.
		t := s.Recv()
		idx := s.Index()
		for _, i := range idx[:len(idx)-1] {
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok {
				return ref{}, false
			}
			t = st.Field(i).Type()
		}
		return member(t, obj.Name())
	}
	return ref{}, false
}

// keyed returns the keys of the fields a keyed struct literal names.
func keyed(info *types.Info, lit *ast.CompositeLit) []ref {
	tv, ok := info.Types[lit]
	if !ok {
		return nil
	}
	if _, ok := deref(tv.Type).Underlying().(*types.Struct); !ok {
		return nil
	}
	var out []ref
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			if r, ok := member(tv.Type, id.Name); ok {
				out = append(out, r)
			}
		}
	}
	return out
}

// member keys name as a member of t, when t (or what it points to) is
// a package-level named type.
func member(t types.Type, name string) (ref, bool) {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return ref{}, false
	}
	tn := n.Origin().Obj()
	if tn.Pkg() == nil || tn.Parent() != tn.Pkg().Scope() {
		return ref{}, false
	}
	return ref{tn.Pkg().Path(), tn.Name(), name}, true
}

// deref strips one pointer and any alias.
func deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		return types.Unalias(p.Elem())
	}
	return t
}

// interfaceMethodNames returns the method names of every interface
// type declared in the loaded packages' non-test files, anonymous
// ones included, and of every package-level interface type in their
// transitive imports. A package seen only through export data shows
// its package-level declarations alone.
func interfaceMethodNames(passes []*analysis.Pass) map[string]bool {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pass := range passes {
		tests := testFiles(pass)
		for e, tv := range pass.TypesInfo.Types {
			if tv.IsType() && !within(tests, e.Pos()) {
				add(tv.Type)
			}
		}
		for _, imp := range pass.Pkg.Imports() {
			walk(imp)
		}
	}
	return names
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
