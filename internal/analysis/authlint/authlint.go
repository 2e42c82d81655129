// Package authlint assembles the repository's authorization-safety
// analyzer suite. cmd/authlint runs it over the real tree; each
// analyzer's own package carries its golden fixture tests.
package authlint

import (
	"gridauth/internal/analysis"
	"gridauth/internal/analysis/auditdeny"
	"gridauth/internal/analysis/ctxprop"
	"gridauth/internal/analysis/deadexport"
	"gridauth/internal/analysis/decisionswitch"
	"gridauth/internal/analysis/epochuse"
	"gridauth/internal/analysis/locksafe"
	"gridauth/internal/analysis/pdpcap"
)

// All returns the suite in stable (alphabetical) order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		auditdeny.Analyzer,
		ctxprop.Analyzer,
		deadexport.Analyzer,
		decisionswitch.Analyzer,
		epochuse.Analyzer,
		locksafe.Analyzer,
		pdpcap.Analyzer,
	}
}
