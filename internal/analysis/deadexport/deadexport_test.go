package deadexport_test

import (
	"path/filepath"
	"testing"

	"gridauth/internal/analysis/analysistest"
	"gridauth/internal/analysis/deadexport"
)

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata", "src"), deadexport.Analyzer,
		"deadexport/internal/lib", "deadexport/app")
}
