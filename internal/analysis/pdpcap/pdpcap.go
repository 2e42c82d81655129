// Package pdpcap checks that PDP implementations declare capabilities
// truthfully. The registry's per-PDP protection TRUSTS these
// declarations: core.NonBlockingPDP waives the per-callout deadline
// entirely (the protection skips its watchdog), and a PDP that mutates
// shared state but does not declare core.EffectfulPDP will be retried
// by the protection — firing its side effect twice for one request. A
// false declaration is
// therefore not a style problem but a silent hole in the paper's
// default-deny enforcement; this analyzer makes both directions a
// compile-time failure:
//
//   - a type implementing core.PDP whose Authorize path reaches network, file or exec I/O, sleeps, or channel
//     operations must NOT declare core.NonBlockingPDP;
//   - a type whose authorize path writes caller-visible state (pointer
//     receiver fields, reference parameters, package variables) MUST
//     declare core.EffectfulPDP.
package pdpcap

import (
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

// authorizeRoot returns the type's Authorize method when its body is
// declared in this package, or nil.
func authorizeRoot(pass *analysis.Pass, cg *lintutil.CallGraph, named *types.Named) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pass.Pkg, "Authorize")
	if fn, ok := obj.(*types.Func); ok {
		if _, declared := cg.Decls[fn]; declared {
			return fn
		}
	}
	return nil
}

func checkType(pass *analysis.Pass, core *lintutil.Core, cg *lintutil.CallGraph, blocks *lintutil.BlockInfo, mutates *lintutil.MutationInfo, named *types.Named) {
	root := authorizeRoot(pass, cg, named)
	if root == nil {
		return // wrapper around an out-of-package implementation
	}
	// Anchored on the Authorize declaration, where suppression comments
	// sit.
	pos := cg.Decls[root].Name.Pos()

	if lintutil.Implements(named, core.NonBlockingPDP) {
		if desc := blocks.FuncBlocks(root); desc != "" {
			pass.Reportf(pos,
				"%s declares core.NonBlockingPDP but %s %s; a PDP that can block must not waive the callout deadline",
				named.Obj().Name(), root.Name(), desc)
		}
	}

	if !lintutil.Implements(named, core.EffectfulPDP) {
		if desc := mutates.FuncMutates(root); desc != "" {
			pass.Reportf(pos,
				"%s.%s %s but %s does not declare core.EffectfulPDP; a retry would fire the side effect twice",
				named.Obj().Name(), root.Name(), desc, named.Obj().Name())
		}
	}
}
