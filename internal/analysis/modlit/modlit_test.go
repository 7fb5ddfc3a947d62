package modlit_test

import (
	"testing"

	"dinfomap/internal/analysis/analysistest"
	"dinfomap/internal/analysis/modlit"
)

func TestModLit(t *testing.T) {
	analysistest.Run(t, "testdata", modlit.Analyzer, "modlituse")
}

func TestModLitExemptsMapeqPackage(t *testing.T) {
	analysistest.Run(t, "testdata", modlit.Analyzer, "mapeq")
}
