// Package auditdeny checks that enforcement points audit the
// decisions they act on. The paper counts the loss of "security,
// audit, accounting" among the costs the fine-grain architecture
// repairs; that repair only holds if every PEP dispatch leaves a
// trail. Concretely: any function that obtains a decision from the
// callout registry ((*core.Registry).InvokeContext) must,
// on some intra-package path reachable from it, write an audit record
// ((*audit.Log).Append) or build one with the package's record builder
// (audit.DecisionRecord) — otherwise a Deny or Error is returned to
// the client with no record of who asked, for what, and which policy
// source refused. Any other call into the audit package (parsing a
// mode, reading the log) does not count.
//
// The core package itself is exempt: it DEFINES the registry, and its
// dispatch plumbing is not an enforcement point — the callers in the
// PEP layers are.
package auditdeny

import (
	"go/ast"
	"go/types"

	"gridauth/internal/analysis"
	"gridauth/internal/analysis/lintutil"
)

// Analyzer flags unaudited PEP dispatches.
var Analyzer = &analysis.Analyzer{
	Name: "auditdeny",
	Doc:  "every Registry.InvokeContext call site must reach audit.Log.Append or audit.DecisionRecord, so Deny/Error decisions always leave an audit record",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	core := lintutil.FindCore(pass)
	if core == nil || core.Registry == nil {
		return nil, nil
	}
	if core.Pkg == pass.Pkg {
		return nil, nil // the registry's own plumbing is not a PEP
	}
	auditPkg := lintutil.FindAudit(pass)
	cg := lintutil.NewCallGraph(pass)

	for fn, decl := range cg.Decls {
		var invokes []*ast.CallExpr
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isRegistryInvoke(pass, core, call) {
				invokes = append(invokes, call)
			}
			return true
		})
		if len(invokes) == 0 {
			continue
		}
		if auditPkg != nil && reachesRecord(cg, fn, auditPkg) {
			continue
		}
		for _, call := range invokes {
			msg := "authorization decision obtained here never reaches an audit record on any path from %s; Deny and Error decisions must leave one (build it with audit.DecisionRecord, write it with audit.Log.Append)"
			if auditPkg == nil {
				msg = "authorization decision obtained here is unaudited and %s's package does not even import the audit package; wire an audit.Log into this enforcement point"
			}
			pass.Reportf(call.Pos(), msg, fn.Name())
		}
	}
	return nil, nil
}

// isRegistryInvoke matches calls to (*core.Registry).InvokeContext by
// method object identity.
func isRegistryInvoke(pass *analysis.Pass, core *lintutil.Core, call *ast.CallExpr) bool {
	callee := lintutil.Callee(pass.TypesInfo, call)
	if callee == nil || callee.Name() != "InvokeContext" {
		return false
	}
	recv := lintutil.ReceiverNamed(callee)
	return recv != nil && recv.Obj() == core.Registry.Obj()
}

// reachesRecord reports whether any function reachable from root
// (intra-package) writes or builds an audit record.
func reachesRecord(cg *lintutil.CallGraph, root *types.Func, auditPkg *types.Package) bool {
	return cg.Reach(root, func(_ *types.Func, decl *ast.FuncDecl) bool {
		found := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := lintutil.Callee(cg.Info, call); callee != nil && isRecording(callee, auditPkg) {
				found = true
				return false
			}
			return true
		})
		return found
	})
}

// isRecording matches (*audit.Log).Append and audit.DecisionRecord.
func isRecording(callee *types.Func, auditPkg *types.Package) bool {
	if callee.Pkg() != auditPkg {
		return false
	}
	if recv := lintutil.ReceiverNamed(callee); recv != nil {
		return callee.Name() == "Append" && recv.Obj().Name() == "Log"
	}
	return callee.Name() == "DecisionRecord"
}
