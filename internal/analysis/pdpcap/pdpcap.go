// Package pdpcap checks that PDP implementations declare capabilities
// truthfully. The resilience layer and the decision cache TRUST these
// declarations: core.NonBlockingPDP waives the per-callout deadline
// entirely (internal/resilience skips its watchdog), and a PDP that
// mutates shared state but does not declare core.EffectfulPDP will be
// retried by the resilience layer and memoized by CachedPDP — firing
// its side effect twice for one request, or skipping it on a cache
// hit. A false declaration is
// therefore not a style problem but a silent hole in the paper's
// default-deny enforcement; this analyzer makes both directions a
// compile-time failure:
//
//   - a type implementing core.PDP whose Authorize/AuthorizeContext
//     path reaches network, file or exec I/O, sleeps, or channel
//     operations must NOT declare core.NonBlockingPDP;
//   - a type whose authorize path writes caller-visible state (pointer
//     receiver fields, reference parameters, package variables) MUST
//     declare core.EffectfulPDP.
package pdpcap

import (
	"go/ast"
	"go/token"
	"go/types"

	"gridauth/internal/analysis"
	"gridauth/internal/analysis/lintutil"
)

// Analyzer flags PDP capability declarations contradicted by the
// implementation.
var Analyzer = &analysis.Analyzer{
	Name: "pdpcap",
	Doc:  "PDP capability declarations (NonBlockingPDP, EffectfulPDP) must match what the authorize path actually does",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	core := lintutil.FindCore(pass)
	if core == nil {
		return nil, nil
	}
	cg := lintutil.NewCallGraph(pass)
	blocks := lintutil.NewBlockInfo(cg)
	mutates := lintutil.NewMutationInfo(cg)

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if !lintutil.Implements(named, core.PDP) {
			continue
		}
		checkType(pass, core, cg, blocks, mutates, named)
	}
	return nil, nil
}

// authorizeRoots returns the type's authorize-path methods whose
// bodies are declared in this package.
func authorizeRoots(pass *analysis.Pass, cg *lintutil.CallGraph, named *types.Named) []*types.Func {
	var roots []*types.Func
	for _, m := range []string{"Authorize", "AuthorizeContext"} {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pass.Pkg, m)
		if fn, ok := obj.(*types.Func); ok {
			if _, declared := cg.Decls[fn]; declared {
				roots = append(roots, fn)
			}
		}
	}
	return roots
}

func checkType(pass *analysis.Pass, core *lintutil.Core, cg *lintutil.CallGraph, blocks *lintutil.BlockInfo, mutates *lintutil.MutationInfo, named *types.Named) {
	roots := authorizeRoots(pass, cg, named)
	if len(roots) == 0 {
		return // wrapper around an out-of-package implementation
	}

	if lintutil.Implements(named, core.NonBlockingPDP) {
		for _, root := range roots {
			if desc := blocks.FuncBlocks(root); desc != "" {
				pass.Reportf(declPos(cg, roots, named),
					"%s declares core.NonBlockingPDP but %s %s; a PDP that can block must not waive the callout deadline",
					named.Obj().Name(), root.Name(), desc)
				break
			}
		}
	}

	if !lintutil.Implements(named, core.EffectfulPDP) {
		for _, root := range roots {
			if desc := mutates.FuncMutates(root); desc != "" {
				pass.Reportf(declPos(cg, roots, named),
					"%s.%s %s but %s does not declare core.EffectfulPDP; a retry would fire the side effect twice and a decision cache would skip it",
					named.Obj().Name(), root.Name(), desc, named.Obj().Name())
				break
			}
		}
	}
}

// declPos anchors the diagnostic on the Authorize declaration when it
// is in this package (suppression comments sit on the method), falling
// back to the type's position.
func declPos(cg *lintutil.CallGraph, roots []*types.Func, named *types.Named) token.Pos {
	for _, root := range roots {
		if decl, ok := cg.Decls[root]; ok {
			return namePos(decl)
		}
	}
	return named.Obj().Pos()
}

func namePos(decl *ast.FuncDecl) token.Pos { return decl.Name.Pos() }
