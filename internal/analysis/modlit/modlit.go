// Package modlit flags mapeq.Module composite literals with fields
// outside package mapeq. A Module caches the two map-equation log terms
// of its statistics, and the delta-L kernel trusts that cache. A
// literal sets the statistics but leaves the cache at zero, so it
// silently yields a wrong delta-L. Modules must be built with
// mapeq.NewModule or come from mapeq.ApplyMove; the empty literal
// mapeq.Module{} is exact (every term is zero) and stays allowed.
//
// The type is matched by name, Module in a package named mapeq, so the
// check also covers stand-ins. Findings cannot be suppressed: there is
// no literal with fields that NewModule cannot replace.
package modlit

import (
	"go/ast"
	"go/types"

	"dinfomap/internal/analysis"
)

// Analyzer is the modlit check.
var Analyzer = &analysis.Analyzer{
	Name: "modlit",
	Doc:  "flags mapeq.Module literals with fields outside mapeq; use mapeq.NewModule",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "mapeq" {
		return nil
	}
	pass.WalkFiles(func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || len(lit.Elts) == 0 || !isModule(pass.TypesInfo.TypeOf(lit)) {
			return true
		}
		pass.Reportf(lit.Pos(),
			"mapeq.Module literal leaves the cached log terms zero; build it with mapeq.NewModule")
		return true
	})
	return nil
}

// isModule reports whether t is a named type Module declared in a
// package named mapeq.
func isModule(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Module" && obj.Pkg() != nil && obj.Pkg().Name() == "mapeq"
}
