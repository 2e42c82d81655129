package auditdeny_test

import (
	"path/filepath"
	"testing"

	"gridauth/internal/analysis/analysistest"
	"gridauth/internal/analysis/auditdeny"
)

func TestAuditDeny(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata", "src"), auditdeny.Analyzer,
		"auditdeny", "auditdeny_noimport", "audit")
}
