// Package locksafe checks that no potentially blocking operation —
// network/file/exec I/O, time.Sleep, channel sends/receives outside a
// select with default, WaitGroup waits — runs while a sync.Mutex or
// sync.RWMutex is held. The registry mutex sits on the hot
// authorization path: dispatch reads the chain under it per request and
// every configuration call rebuilds chains under it, so one blocking
// call under it turns a per-PDP hang into a whole-gatekeeper stall. The
// check is
// intra-procedural over lock regions (Lock/Unlock pairs, deferred
// unlocks hold to function end) but follows intra-package calls when
// deciding whether an operation can block.
//
// sync.Cond.Wait is deliberately exempt: waiting on a condition
// variable while holding its mutex is that API's contract (Wait
// releases the lock).
package locksafe

import (
	"go/ast"
	"go/token"
	"strings"

	"gridauth/internal/analysis"
	"gridauth/internal/analysis/lintutil"
)

// Analyzer flags blocking operations inside mutex-held regions.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "no blocking call (I/O, sleep, channel op without default) while holding a sync.Mutex/RWMutex, e.g. the registry mutex",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	cg := lintutil.NewCallGraph(pass)
	blocks := lintutil.NewBlockInfo(cg)
	for _, decl := range cg.Decls {
		w := &walker{
			pass:   pass,
			blocks: blocks,
			skip:   lintutil.NonBlockingComms(decl.Body),
			held:   map[string]token.Pos{},
		}
		w.stmts(decl.Body.List)
	}
	return nil, nil
}

// walker tracks which mutexes are held through a linear traversal of
// one function body. Branching is handled conservatively: a region's
// statements are visited in source order with one shared held-set, so
// an Unlock in any branch releases for everything after it.
type walker struct {
	pass   *analysis.Pass
	blocks *lintutil.BlockInfo
	skip   map[ast.Node]bool
	held   map[string]token.Pos
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op := w.mutexOp(call); key != "" {
				switch op {
				case "Lock", "RLock":
					w.held[key] = call.Pos()
				case "Unlock", "RUnlock":
					delete(w.held, key)
				}
				return
			}
		}
		w.check(s)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the region held to function end,
		// which is already this walker's behaviour; other deferred work
		// runs after the body, outside any region we can reason about.
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks.
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		w.checkExprs(s.Init, s.Cond)
		w.stmt(s.Body)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		w.checkExprs(s.Init, s.Cond, s.Post)
		w.stmt(s.Body)
	case *ast.RangeStmt:
		w.check(s) // the range expression itself may block (channel)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.checkExprs(s.Init, s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		w.check(s) // flags select-without-default as a whole
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	default:
		w.check(s)
	}
}

// checkExprs scans optional sub-clauses (inits, conditions).
func (w *walker) checkExprs(nodes ...ast.Node) {
	for _, n := range nodes {
		if n != nil && !isNilNode(n) {
			w.check(n)
		}
	}
}

// isNilNode guards typed-nil ast.Stmt/ast.Expr interface values.
func isNilNode(n ast.Node) bool {
	switch v := n.(type) {
	case ast.Stmt:
		return v == nil
	case ast.Expr:
		return v == nil
	}
	return n == nil
}

// check scans one statement subtree for blocking operations while any
// lock is held. Function literals are skipped: their bodies run when
// called, not where defined.
func (w *walker) check(n ast.Node) {
	if len(w.held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node.(type) {
		case *ast.FuncLit:
			return false
		case nil:
			return false
		}
		desc := w.blocks.NodeBlocks(node, w.skip)
		if desc == "" {
			return true
		}
		if strings.Contains(desc, "sync.Cond.Wait") {
			return true // condition-variable wait releases the mutex
		}
		// One report per node, naming the earliest-acquired held lock so
		// the choice is deterministic when several are held.
		key := ""
		for k := range w.held {
			if key == "" || w.held[k] < w.held[key] {
				key = k
			}
		}
		lp := w.pass.Fset.Position(w.held[key])
		w.pass.Reportf(node.Pos(),
			"potentially blocking operation (%s) while %s is held (locked at line %d); release the lock first or the whole shard/registry stalls with it",
			strings.TrimPrefix(desc, "calls "), key, lp.Line)
		return false // deepest-first duplicates are noise; stop descending
	})
}

// mutexOp matches x.mu.Lock()/Unlock()/RLock()/RUnlock() on
// sync.Mutex/RWMutex, returning the receiver chain ("x.mu") and op.
func (w *walker) mutexOp(call *ast.CallExpr) (key, op string) {
	callee := lintutil.Callee(w.pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", ""
	}
	switch callee.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return lintutil.ExprString(sel.X), callee.Name()
}
