// Package all registers the complete dinfomap analyzer suite in its
// canonical order. cmd/dinfomap-vet and the clean-tree regression test
// share this list so the vet binary and go test enforce the same set.
package all

import (
	"dinfomap/internal/analysis"
	"dinfomap/internal/analysis/anysource"
	"dinfomap/internal/analysis/bufalias"
	"dinfomap/internal/analysis/closecheck"
	"dinfomap/internal/analysis/codecsym"
	"dinfomap/internal/analysis/floateq"
	"dinfomap/internal/analysis/maporder"
	"dinfomap/internal/analysis/modlit"
	"dinfomap/internal/analysis/rankshare"
	"dinfomap/internal/analysis/seededrand"
)

// Analyzers returns the full suite. The slice is freshly allocated;
// callers may reorder or filter it.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		floateq.Analyzer,
		seededrand.Analyzer,
		closecheck.Analyzer,
		rankshare.Analyzer,
		bufalias.Analyzer,
		anysource.Analyzer,
		codecsym.Analyzer,
		modlit.Analyzer,
	}
}
