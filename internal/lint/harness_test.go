package lint

// The analysistest-style harness: fixtures live under testdata/src at
// the directory mirroring the import path they claim (the GOPATH-shaped
// layout golang.org/x/tools/go/analysis/analysistest uses), and every
// line expecting a finding carries a `// want "regexp"` comment. The
// harness loads the fixture package with the real loader — imports
// resolve against the actual module, so fixtures exercise the real
// xrand/overlay/registry/transport types — runs the suite, and matches
// findings against expectations both ways: an unmatched finding and an
// unsatisfied want are both failures. //detlint:allow suppression runs
// through the same path, so "suppressed" fixtures verify absence.

import (
	"bufio"
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRE = regexp.MustCompile(`// want (.+)$`)
var wantArgRE = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// runFixture analyzes the testdata/src/<importPath> packages with the
// given analyzers — all in ONE suite, so cross-package facts like
// stream-offset collisions aggregate — and checks the // want
// expectations in their files.
func runFixture(t *testing.T, analyzers []*Analyzer, importPaths ...string) {
	t.Helper()
	loader := NewLoader("")
	var pkgs []*Package
	var wants []*expectation
	for _, importPath := range importPaths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(importPath))
		pkg, err := loader.LoadDir(dir, importPath, pkgs...)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", importPath, err)
		}
		pkgs = append(pkgs, pkg)
		for _, file := range pkg.Files {
			wants = append(wants, scanWants(t, file)...)
		}
	}
	suite := NewSuite("p2psize", analyzers)
	diags := suite.Run(pkgs)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// scanWants extracts the // want expectations of one fixture file.
func scanWants(t *testing.T, file string) []*expectation {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wants []*expectation
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		m := wantRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		args := wantArgRE.FindAllStringSubmatch(m[1], -1)
		if len(args) == 0 {
			t.Fatalf("%s:%d: malformed want comment (need quoted regexps)", file, line)
		}
		for _, a := range args {
			re, err := regexp.Compile(a[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", file, line, a[1], err)
			}
			wants = append(wants, &expectation{file: file, line: line, pattern: re})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return wants
}

// writeFile drops one source file into a synthesized fixture dir.
func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixturePath builds the fixture import paths used below; fixtures sit
// under the module's internal tree so the InternalOnly analyzers see
// them as in scope.
func fixturePath(name string) string {
	return fmt.Sprintf("p2psize/internal/%s", strings.TrimPrefix(name, "/"))
}

// LoadDir loads one directory of Go files as a package under the given
// import path, without requiring it to be part of the build — this is
// how the analysistest fixtures under testdata/src (which mirror the
// import path they claim) are brought up. Test files are skipped, as
// Load skips them. Imports of the given fixture packages resolve to
// them; every other import resolves against the real module and
// standard library.
func (l *Loader) LoadDir(dir, importPath string, deps ...*Package) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("detlint: no Go files in %s", dir)
	}
	fixtures := fixtureImporter{next: l.imp, pkgs: map[string]*types.Package{}}
	for _, dep := range deps {
		fixtures.pkgs[dep.ImportPath] = dep.Types
	}
	// Pre-resolve the fixture's other imports so the export-data table
	// covers them (the fixture itself is outside the module graph).
	var imports []string
	for _, f := range files {
		af, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, f), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range af.Imports {
			if path := strings.Trim(spec.Path.Value, `"`); fixtures.pkgs[path] == nil {
				imports = append(imports, path)
			}
		}
	}
	if len(imports) > 0 {
		if _, err := l.list(imports); err != nil {
			return nil, err
		}
	}
	l.imp = fixtures
	defer func() { l.imp = fixtures.next }()
	return l.check(importPath, dir, files)
}

// fixtureImporter resolves imports of already loaded fixture packages
// before falling back to export data.
type fixtureImporter struct {
	next types.Importer
	pkgs map[string]*types.Package
}

func (f fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg := f.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	return f.next.Import(path)
}
