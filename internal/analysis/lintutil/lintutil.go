// Package lintutil holds the type- and AST-level helpers the authlint
// analyzers share: locating the authorization core package from the
// package under analysis, building an intra-package call graph, and
// classifying operations that may block or mutate shared state.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"

	"gridauth/internal/analysis"
)

// Core exposes the authorization framework's key objects as visible
// from the package under analysis. Analyzers match the core package
// structurally — a package named "core" declaring the PDP interface
// and the Decision type — so the real tree (gridauth/internal/core)
// and test fixtures (a stub package "core") are handled identically.
type Core struct {
	Pkg *types.Package

	PDP            *types.Interface // always non-nil
	NonBlockingPDP *types.Interface // may be nil
	EffectfulPDP   *types.Interface // may be nil

	Decision *types.Named // always non-nil
	Effect   *types.Named // may be nil
	Registry *types.Named // may be nil

	// EffectConsts maps the four effect names (Permit, Deny, Error,
	// NotApplicable) to their constants, when declared.
	EffectConsts map[string]*types.Const
}

// FindCore locates the core package: the package under analysis
// itself, or one of its direct imports.
func FindCore(pass *analysis.Pass) *Core {
	if c := coreFrom(pass.Pkg); c != nil {
		return c
	}
	for _, imp := range pass.Pkg.Imports() {
		if c := coreFrom(imp); c != nil {
			return c
		}
	}
	return nil
}

// coreFrom inspects one package for the core surface.
func coreFrom(pkg *types.Package) *Core {
	if pkg.Name() != "core" {
		return nil
	}
	scope := pkg.Scope()
	pdp := namedInterface(scope, "PDP")
	decision := namedType(scope, "Decision")
	if pdp == nil || decision == nil {
		return nil
	}
	c := &Core{
		Pkg:            pkg,
		PDP:            pdp,
		NonBlockingPDP: namedInterface(scope, "NonBlockingPDP"),
		EffectfulPDP:   namedInterface(scope, "EffectfulPDP"),
		Decision:       decision,
		Effect:         namedType(scope, "Effect"),
		Registry:       namedType(scope, "Registry"),
		EffectConsts:   map[string]*types.Const{},
	}
	for _, name := range []string{"Permit", "Deny", "Error", "NotApplicable"} {
		if obj, ok := scope.Lookup(name).(*types.Const); ok {
			c.EffectConsts[name] = obj
		}
	}
	return c
}

// FindAudit locates the audit package (a package named "audit"
// declaring a Log type: the package under analysis or a direct import),
// or nil.
func FindAudit(pass *analysis.Pass) *types.Package {
	for _, pkg := range append([]*types.Package{pass.Pkg}, pass.Pkg.Imports()...) {
		if pkg.Name() == "audit" && namedType(pkg.Scope(), "Log") != nil {
			return pkg
		}
	}
	return nil
}

func namedType(scope *types.Scope, name string) *types.Named {
	obj, ok := scope.Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	named, _ := obj.Type().(*types.Named)
	return named
}

func namedInterface(scope *types.Scope, name string) *types.Interface {
	named := namedType(scope, name)
	if named == nil {
		return nil
	}
	iface, _ := named.Underlying().(*types.Interface)
	return iface
}

// Implements reports whether T or *T satisfies iface.
func Implements(t types.Type, iface *types.Interface) bool {
	if iface == nil {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// Callee resolves the static *types.Func a call invokes, or nil for
// indirect calls (function values, conversions, builtins).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			// Package-qualified call: pkg.F(...)
			obj = info.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// CallGraph indexes the function declarations of one package and, for
// reachability questions, the static calls inside each.
type CallGraph struct {
	Info  *types.Info
	Decls map[*types.Func]*ast.FuncDecl
}

// NewCallGraph builds the package's declaration index.
func NewCallGraph(pass *analysis.Pass) *CallGraph {
	g := &CallGraph{Info: pass.TypesInfo, Decls: map[*types.Func]*ast.FuncDecl{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.Decls[fn] = fd
			}
		}
	}
	return g
}

// Reach walks the intra-package call graph from root (inclusive),
// invoking visit once per reachable declared function. If visit
// returns true the walk stops early and Reach returns true.
func (g *CallGraph) Reach(root *types.Func, visit func(fn *types.Func, decl *ast.FuncDecl) bool) bool {
	seen := map[*types.Func]bool{}
	var walk func(fn *types.Func) bool
	walk = func(fn *types.Func) bool {
		if fn == nil || seen[fn] {
			return false
		}
		seen[fn] = true
		decl, ok := g.Decls[fn]
		if !ok {
			return false
		}
		if visit(fn, decl) {
			return true
		}
		stop := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if stop {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := Callee(g.Info, call); callee != nil {
					if walk(callee) {
						stop = true
					}
				}
			}
			return !stop
		})
		return stop
	}
	return walk(root)
}

// blockingPkgs are packages any call into which is treated as
// potentially blocking I/O.
var blockingPkgs = map[string]bool{
	"net":          true,
	"net/http":     true,
	"net/rpc":      true,
	"os/exec":      true,
	"database/sql": true,
}

// osBlocking are os package functions that reach the filesystem.
var osBlocking = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "Pipe": true,
}

// CallBlocks classifies a resolved callee as potentially blocking,
// returning a short description ("" when it is not). Mutex
// acquisition is deliberately NOT in this set: NonBlockingPDP's
// contract tolerates nanosecond-scale lock handoffs, and locksafe
// tracks lock *holding* separately.
func CallBlocks(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case blockingPkgs[path]:
		return "calls " + path + "." + qualifiedName(fn)
	case path == "time" && name == "Sleep":
		return "calls time.Sleep"
	case path == "os" && osBlocking[name]:
		return "calls os." + name
	case path == "os" && recvIsOSFile(fn) && (name == "Read" || name == "Write" || name == "ReadAt" || name == "WriteAt" || name == "Sync" || name == "ReadFrom" || name == "WriteTo"):
		return "calls (*os.File)." + name
	case path == "sync" && name == "Wait":
		return "calls sync." + qualifiedName(fn)
	}
	return ""
}

// recvIsOSFile reports whether fn is a method on os.File.
func recvIsOSFile(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "File"
}

// qualifiedName renders Recv.Name for methods and Name for functions.
func qualifiedName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// nonBlockingComms collects the communication statements of
// select-with-default clauses within root: those sends/receives are
// non-blocking attempts and must not be classified as blocking.
func nonBlockingComms(root ast.Node) map[ast.Node]bool {
	skip := map[ast.Node]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				skip[cc.Comm] = true
			}
		}
		return true
	})
	return skip
}

// within reports whether pos lies inside any node of the set.
func within(skip map[ast.Node]bool, n ast.Node) bool {
	for s := range skip {
		if s.Pos() <= n.Pos() && n.End() <= s.End() {
			return true
		}
	}
	return false
}

// BlockInfo answers "can this function or node block?" for one
// package, memoizing per-function summaries so transitive
// intra-package calls are followed without exponential rewalks.
type BlockInfo struct {
	cg   *CallGraph
	memo map[*types.Func]string
}

// NewBlockInfo builds the summary table over a call graph.
func NewBlockInfo(cg *CallGraph) *BlockInfo {
	return &BlockInfo{cg: cg, memo: map[*types.Func]string{}}
}

// FuncBlocks returns a description of the first potentially blocking
// operation reachable from fn within the package, or "".
func (b *BlockInfo) FuncBlocks(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if desc, ok := b.memo[fn]; ok {
		return desc
	}
	// Cycle guard: while fn is being computed, treat recursive calls to
	// it as non-blocking; the outer frame will classify their bodies.
	b.memo[fn] = ""
	decl, ok := b.cg.Decls[fn]
	if !ok {
		desc := CallBlocks(fn)
		b.memo[fn] = desc
		return desc
	}
	desc := ""
	skip := nonBlockingComms(decl.Body)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		if d := b.nodeBlocks(n, skip); d != "" {
			desc = d
			return false
		}
		return true
	})
	b.memo[fn] = desc
	return desc
}

// NodeBlocks classifies one AST node as a potentially blocking
// operation ("" when it is not), following intra-package calls. skip
// is the select-with-default comm set of the enclosing body (see
// NonBlockingComms).
func (b *BlockInfo) NodeBlocks(n ast.Node, skip map[ast.Node]bool) string {
	return b.nodeBlocks(n, skip)
}

// NonBlockingComms exposes the select-with-default comm statements of
// a body, for callers driving their own traversal.
func NonBlockingComms(root ast.Node) map[ast.Node]bool { return nonBlockingComms(root) }

func (b *BlockInfo) nodeBlocks(n ast.Node, skip map[ast.Node]bool) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		callee := Callee(b.cg.Info, n)
		if callee == nil {
			return ""
		}
		if d := CallBlocks(callee); d != "" {
			return d
		}
		if _, ok := b.cg.Decls[callee]; ok {
			if d := b.FuncBlocks(callee); d != "" {
				return "calls " + callee.Name() + ", which " + d
			}
		}
	case *ast.UnaryExpr:
		if n.Op.String() == "<-" && !within(skip, n) {
			return "receives from a channel"
		}
	case *ast.SendStmt:
		if !within(skip, n) {
			return "sends on a channel"
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return "blocks in a select without default"
		}
	case *ast.RangeStmt:
		if n.X != nil {
			if tv, ok := b.cg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					return "ranges over a channel"
				}
			}
		}
	}
	return ""
}

// MutationInfo answers "does this function mutate caller-visible
// state?" — an assignment, increment, delete or append-reassignment
// whose target roots at a pointer receiver, a pointer/reference
// parameter, or a package-level variable — following intra-package
// calls with memoized summaries.
type MutationInfo struct {
	cg   *CallGraph
	memo map[*types.Func]string
}

// NewMutationInfo builds the summary table over a call graph.
func NewMutationInfo(cg *CallGraph) *MutationInfo {
	return &MutationInfo{cg: cg, memo: map[*types.Func]string{}}
}

// FuncMutates returns a description of the first shared-state
// mutation reachable from fn within the package, or "".
func (m *MutationInfo) FuncMutates(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if desc, ok := m.memo[fn]; ok {
		return desc
	}
	m.memo[fn] = "" // cycle guard, as in BlockInfo
	decl, ok := m.cg.Decls[fn]
	if !ok {
		return ""
	}
	desc := ""
	report := func(d string) {
		if desc == "" {
			desc = d
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if root := m.sharedRoot(fn, lhs); root != "" {
					report("writes " + ExprString(lhs) + " (shared via " + root + ")")
				}
			}
		case *ast.IncDecStmt:
			if root := m.sharedRoot(fn, n.X); root != "" {
				report("writes " + ExprString(n.X) + " (shared via " + root + ")")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := m.cg.Info.Uses[id].(*types.Builtin); isBuiltin {
					if root := m.sharedRoot(fn, n.Args[0]); root != "" {
						report("deletes from " + ExprString(n.Args[0]) + " (shared via " + root + ")")
					}
				}
			}
			if callee := Callee(m.cg.Info, n); callee != nil {
				if _, declared := m.cg.Decls[callee]; declared {
					if d := m.FuncMutates(callee); d != "" {
						report("calls " + callee.Name() + ", which " + d)
					}
				}
			}
		}
		return desc == ""
	})
	m.memo[fn] = desc
	return desc
}

// sharedRoot walks a selector/index chain to its root identifier and
// reports the root's name when an assignment through the chain is
// visible outside fn: a pointer receiver, a pointer-, map-, slice- or
// interface-typed parameter or receiver, or a package-level variable.
// A blank or purely local root returns "".
func (m *MutationInfo) sharedRoot(fn *types.Func, expr ast.Expr) string {
	base := expr
	depth := 0
	for {
		switch e := ast.Unparen(base).(type) {
		case *ast.SelectorExpr:
			base = e.X
			depth++
		case *ast.IndexExpr:
			base = e.X
			depth++
		case *ast.StarExpr:
			base = e.X
			depth++
		default:
			id, ok := ast.Unparen(base).(*ast.Ident)
			if !ok || id.Name == "_" {
				return ""
			}
			v, ok := m.cg.Info.Uses[id].(*types.Var)
			if !ok {
				return ""
			}
			return m.classifyRoot(fn, v, depth)
		}
	}
}

// classifyRoot decides whether writes through root escape fn.
func (m *MutationInfo) classifyRoot(fn *types.Func, v *types.Var, depth int) string {
	sig, _ := fn.Type().(*types.Signature)
	// Package-level variable: always shared.
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return "package variable " + v.Name()
	}
	isParam := func() bool {
		if sig == nil {
			return false
		}
		if sig.Recv() == v {
			return true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == v {
				return true
			}
		}
		return false
	}()
	if !isParam {
		return ""
	}
	// Plain reassignment of the parameter itself (p = x) only changes
	// the copy; a caller-visible write is always depth >= 1 (*p, p.f,
	// p[k] all walk at least one chain step).
	if depth == 0 {
		return ""
	}
	// A write through a field/index/deref chain escapes when the
	// parameter is a pointer, map, slice, or channel — or a struct
	// containing one at the written path. Conservatively require a
	// reference-like parameter type; writes into a by-value struct
	// parameter stay local.
	switch v.Type().Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return "parameter " + v.Name()
	}
	return ""
}

// exprString renders a short source-ish form of an expression chain.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.ParenExpr:
		return ExprString(e.X)
	default:
		return "expr"
	}
}

// ReceiverNamed returns the named type of a method's receiver (through
// one pointer), or nil.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// HasCtxParam reports whether fn's signature takes a context.Context
// parameter, returning its index (-1 when absent).
func HasCtxParam(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if IsContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// PkgPathSuffix reports whether path is exactly suffix or ends in
// "/"+suffix (so fixtures named "core" and the real
// "gridauth/internal/core" both match).
func PkgPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
