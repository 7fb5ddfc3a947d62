// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against expectations written in the source,
// mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { // want `range over map`
//
// Each `// want "regexp"` comment demands exactly one diagnostic on
// its line whose message matches the regexp; diagnostics on lines
// without a want comment are errors, as are unmatched wants. Testdata
// packages live under <dir>/src/<pkg> and may import the standard
// library and packages of this module, never each other (imports
// resolve through `go list -export`, which works offline against the
// build cache).
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dinfomap/internal/analysis"
)

// Run applies a to the package at dir/src/pkgpath and reports
// expectation mismatches as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	pkgdir := filepath.Join(dir, "src", pkgpath)
	pkg, err := loadTestdata(pkgdir, pkgpath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgdir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors in %s: %v", pkgdir, pkg.TypeErrors)
	}

	diags, err := analysis.RunAnalyzers([]*analysis.Analyzer{a}, []*analysis.Package{pkg})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatal(err)
	}

	matched := make(map[string]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		w, ok := wants[key]
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", d.Pos, d.Message, w.re)
		}
		matched[key] = true
	}
	var unmet []string
	for key, w := range wants {
		if !matched[key] {
			unmet = append(unmet, fmt.Sprintf("%s: no diagnostic matching %q", key, w.re))
		}
	}
	sort.Strings(unmet)
	for _, m := range unmet {
		t.Error(m)
	}
}

type want struct {
	re *regexp.Regexp
}

// collectWants scans every file's comments for `// want "re"` markers,
// keyed by file:line.
func collectWants(pkg *analysis.Package) (map[string]want, error) {
	wants := make(map[string]want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				lit := strings.TrimSpace(strings.TrimPrefix(text, "want"))
				var pattern string
				if strings.HasPrefix(lit, "`") {
					end := strings.Index(lit[1:], "`")
					if end < 0 {
						return nil, fmt.Errorf("unterminated want pattern: %s", c.Text)
					}
					pattern = lit[1 : 1+end]
				} else {
					var err error
					pattern, err = strconv.Unquote(lit)
					if err != nil {
						return nil, fmt.Errorf("bad want pattern %q: %v", lit, err)
					}
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					return nil, fmt.Errorf("bad want regexp %q: %v", pattern, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = want{re: re}
			}
		}
	}
	return wants, nil
}

// loadTestdata type-checks the single package in pkgdir. The go tool
// never lists testdata directories via wildcard patterns, so the
// package is loaded by hand: parse every .go file, then resolve its
// (stdlib-only) imports through the analysis loader's export-data
// importer.
func loadTestdata(pkgdir, pkgpath string) (*analysis.Package, error) {
	entries, err := os.ReadDir(pkgdir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no .go files in %s", pkgdir)
	}
	sort.Strings(goFiles)
	return analysis.LoadDir(pkgdir, pkgpath, goFiles)
}
