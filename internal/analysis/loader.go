package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without x/tools/go/packages.
// Two modes share one mechanism:
//
//   - Module mode (Load): package patterns are resolved with
//     `go list -export -deps -json`, target packages are parsed from
//     source, and every import — stdlib or intra-module — is satisfied
//     from the compiler export data the go tool just produced. This is
//     how cmd/authlint loads the real tree.
//
//   - Fixture mode (LoadSource): packages live in a GOPATH-style
//     source root (testdata/src/<importpath>), imports between
//     fixtures are type-checked from source recursively, and stdlib
//     imports fall back to export data obtained lazily from `go list`.
//     This is how analysistest loads analyzer fixtures.
type Loader struct {
	// Dir is the working directory for `go list` (module mode resolves
	// patterns relative to it; empty means the current directory).
	Dir string
	// SrcRoot, when set, enables fixture mode: import paths resolve to
	// SrcRoot/<path> before falling back to export data.
	SrcRoot string

	mu      sync.Mutex
	fset    *token.FileSet
	exports map[string]string         // import path -> export data file
	srcPkgs map[string]*types.Package // fixture packages, by import path
	loading map[string]bool           // fixture import cycle detection
	gcimp   types.Importer            // shared: one instance keeps type identity
}

// NewLoader returns a loader; dir is the `go list` working directory.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		srcPkgs: map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` for the given patterns and
// returns the decoded packages.
func (l *Loader) goList(patterns ...string) ([]*listPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,DepOnly,GoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decode: %v", patterns, err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// addExports records export data files from a go list run.
func (l *Loader) addExports(pkgs []*listPackage) {
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
}

// Load resolves patterns in module mode and returns the matched
// packages, parsed and type-checked, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.addExports(listed)
	l.mu.Unlock()
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := l.check(p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadSource loads fixture packages by import path from SrcRoot.
func (l *Loader) LoadSource(paths ...string) ([]*Package, error) {
	if l.SrcRoot == "" {
		return nil, fmt.Errorf("LoadSource requires SrcRoot")
	}
	var out []*Package
	for _, path := range paths {
		files, err := sourceFiles(filepath.Join(l.SrcRoot, path))
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.srcPkgs[path] = pkg.Types
		l.mu.Unlock()
		out = append(out, pkg)
	}
	return out, nil
}

// sourceFiles lists the .go files of one fixture directory, sorted.
// A fixture's _test.go files are included, so a check can be shown to
// ignore them.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

// check parses and type-checks one package from source files.
func (l *Loader) check(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// loaderImporter resolves imports for type checking: fixture packages
// from SrcRoot (recursively, from source), everything else from the
// compiler export data `go list -export` produced.
type loaderImporter Loader

// Import implements types.Importer.
func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.SrcRoot != "" {
		l.mu.Lock()
		if p, ok := l.srcPkgs[path]; ok {
			l.mu.Unlock()
			return p, nil
		}
		cycle := l.loading[path]
		l.mu.Unlock()
		dir := filepath.Join(l.SrcRoot, path)
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			if cycle {
				return nil, fmt.Errorf("import cycle through %q", path)
			}
			l.mu.Lock()
			l.loading[path] = true
			l.mu.Unlock()
			defer func() {
				l.mu.Lock()
				delete(l.loading, path)
				l.mu.Unlock()
			}()
			files, err := sourceFiles(dir)
			if err != nil {
				return nil, err
			}
			pkg, err := l.check(path, files)
			if err != nil {
				return nil, err
			}
			l.mu.Lock()
			l.srcPkgs[path] = pkg.Types
			l.mu.Unlock()
			return pkg.Types, nil
		}
	}
	if err := l.ensureExport(path); err != nil {
		return nil, err
	}
	return l.gcImporter().Import(path)
}

// gcImporter returns the loader's single export-data importer. Sharing
// one instance is load-bearing: the gc importer caches every package
// it materializes, so two imports that both reach (say) internal/core
// see the identical *types.Package and type identity holds.
func (l *Loader) gcImporter() types.Importer {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gcimp == nil {
		l.gcimp = importer.ForCompiler(l.fset, "gc", func(p string) (io.ReadCloser, error) {
			l.mu.Lock()
			f, ok := l.exports[p]
			l.mu.Unlock()
			if !ok {
				if err := l.ensureExport(p); err != nil {
					return nil, err
				}
				l.mu.Lock()
				f = l.exports[p]
				l.mu.Unlock()
			}
			return os.Open(f)
		})
	}
	return l.gcimp
}

// ensureExport makes sure export data for path (and its dependencies)
// is on hand, shelling out to `go list` at most once per missing path.
func (l *Loader) ensureExport(path string) error {
	l.mu.Lock()
	_, ok := l.exports[path]
	l.mu.Unlock()
	if ok {
		return nil
	}
	listed, err := l.goList(path)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.addExports(listed)
	_, ok = l.exports[path]
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("no export data for %s", strconv.Quote(path))
	}
	return nil
}
