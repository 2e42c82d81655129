// Package epochuse checks that cluster-layer code never reads a
// replicated policy snapshot without capturing the epoch it decided
// at. In a federation (docs/CLUSTER.md) every node enforces a compiled
// snapshot that a publisher replaced at some epoch E; a bare
// Store.Current()/Store.Compiled() read is anonymous — when an
// operator later asks "which policy version denied this job on node 2"
// there is nothing to correlate against the leader's publish log, and
// pairing it with a second load to learn the epoch can tear across a
// concurrent Replace. Store.Snapshot() returns policy, compiled form
// and epoch from ONE atomic load and is the only accepted accessor.
//
// The check is scoped to packages named "cluster" (the replication
// layer, where epochs are the consistency currency); other layers read
// through their own PDP adapters and are out of scope.
package epochuse

import (
	"go/ast"

	"gridauth/internal/analysis"
	"gridauth/internal/analysis/lintutil"
)

// Analyzer flags epoch-less policy snapshot reads in cluster packages.
var Analyzer = &analysis.Analyzer{
	Name: "epochuse",
	Doc:  "cluster-layer code must not read a policy Store snapshot (Current/Compiled) without capturing its epoch; Store.Snapshot() is the only accepted accessor",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() != "cluster" {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if m := storeMethod(pass, call); m == "Current" || m == "Compiled" {
				pass.Reportf(call.Pos(),
					"cluster code reads a replicated policy snapshot (Store.%s) without capturing its epoch; the decision cannot be correlated with what the leader published — read Store.Snapshot() (policy, compiled and epoch in one atomic load)", m)
			}
			return true
		})
	}
	return nil, nil
}

// storeMethod returns the method name when call is a method on the
// policy Store (a named type Store in a package named policy, matched
// structurally like the other analyzers), else "".
func storeMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := lintutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	named := lintutil.ReceiverNamed(fn)
	if named == nil {
		return ""
	}
	obj := named.Obj()
	if obj.Name() != "Store" || obj.Pkg() == nil || obj.Pkg().Name() != "policy" {
		return ""
	}
	return fn.Name()
}
