// Package ctxprop checks that request-path code threads its
// context.Context instead of severing the cancellation chain. The
// gatekeeper gives every request its own context (cancelled on daemon
// shutdown and request abandonment), and every PDP in a chain receives
// it, so remote callouts whose result can no longer matter can stop. A
// function that receives a ctx but calls context.Background() or
// context.TODO() silently re-anchors the work to a root context:
// shutdown no longer reaches it and abandoned requests keep paying for
// policy evaluation.
package ctxprop

import (
	"go/ast"
	"go/types"

	"gridauth/internal/analysis"
	"gridauth/internal/analysis/lintutil"
)

// Analyzer flags dropped contexts on request paths.
var Analyzer = &analysis.Analyzer{
	Name: "ctxprop",
	Doc:  "functions that take a context.Context must thread it: no context.Background/TODO",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || lintutil.HasCtxParam(fn) < 0 {
				continue
			}
			checkBody(pass, fn, fd)
		}
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, fn *types.Func, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := lintutil.Callee(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "context" &&
			(callee.Name() == "Background" || callee.Name() == "TODO") {
			pass.Reportf(call.Pos(),
				"%s receives a context.Context but constructs context.%s here; thread the caller's ctx so cancellation reaches this work",
				fn.Name(), callee.Name())
		}
		return true
	})
}
