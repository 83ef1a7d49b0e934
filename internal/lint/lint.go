// Package lint is detlint: a suite of static analyzers that enforce
// the repo's determinism and metering invariants at lint time instead
// of (only) at runtime. Every PR since the seed has re-proven the same
// property — byte-identical output at any worker count — with checksum
// tests that catch nondeterminism only after the fact; the three
// map-iteration bugs fixed in PR 1 (graph.BarabasiAlbert,
// cyclon.ExportGraph, cyclon.Join) are the canonical failure class.
// These analyzers flag that class (and its cousins: wall-clock reads,
// stray rng sources, seed-stream offset collisions, metering-seam
// bypasses) while the diff is still on screen. A sixth, testonly, keeps
// code that only tests call out of the build.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape —
// one Analyzer value per invariant, a Pass carrying one type-checked
// package, Reportf for diagnostics — but is built purely on the
// standard library (go/ast, go/types, go/importer) so the module stays
// dependency-free: packages are loaded from source with imports
// resolved through `go list -export` compiler export data (see
// load.go). Migrating an analyzer onto the real x/tools multichecker
// is mechanical: the Run signature and diagnostic positions carry over
// unchanged.
//
// Suppression: a finding is intentionally kept by placing a line
// directive
//
//	//detlint:allow <analyzer>[,<analyzer>...]  <justification>
//
// either at the end of the flagged line or on the line directly above
// it. The justification is free text and is required by review policy,
// not by the tool. Test files are not analyzed: the invariants guard
// shipped simulation code, and tests legitimately read wall clocks and
// construct colliding descriptors on purpose.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a concrete source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package: the unit an analyzer
// Run sees. Files holds the absolute file names parallel to Syntax.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []string
	Syntax     []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Analyzer is one invariant checker. Scope is decided by the driver
// before Run is called: InternalOnly restricts the analyzer to
// packages under <module>/internal, and Allowlist exempts packages
// (import-path entries, trailing "/..." for subtrees) or single files
// (path-suffix entries containing ".go"). Run reports per-package
// findings; the optional Finish hook runs once after every package and
// is where cross-package facts (e.g. stream-offset collisions) turn
// into diagnostics.
type Analyzer struct {
	Name         string
	Doc          string
	InternalOnly bool
	Allowlist    []string
	Run          func(*Pass)
	Finish       func(*Suite)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Suite    *Suite
}

// Reportf records a finding at pos. Allowlisted files and
// //detlint:allow directives are honored by the suite afterwards, so
// analyzers report unconditionally.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Suite.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves a token.Pos against the package's file set; used
// by analyzers that embed a second source position in a message (the
// stream-offset collision findings link both literals).
func (p *Pass) Position(pos token.Pos) token.Position { return p.Pkg.Fset.Position(pos) }

// Suite runs a set of analyzers over a set of packages and owns the
// cross-cutting state: the module path for scope decisions, directive
// suppression, and per-analyzer cross-package facts.
type Suite struct {
	Analyzers  []*Analyzer
	ModulePath string

	diags []Diagnostic
	// allows maps file name -> line -> analyzer names allowed there.
	allows map[string]map[int]map[string]bool
	// offsetSites accumulates streamoffset facts across packages.
	offsetSites []offsetSite
	// testonly accumulates declarations and uses across packages.
	testonly *testonlyFacts
}

func (s *Suite) report(d Diagnostic) { s.diags = append(s.diags, d) }

// Run analyzes every package with every in-scope analyzer, runs the
// Finish hooks, filters suppressed findings, and returns the surviving
// diagnostics sorted by position.
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	s.diags = nil
	s.allows = map[string]map[int]map[string]bool{}
	s.offsetSites = nil
	s.testonly = newTestonlyFacts()
	for _, pkg := range pkgs {
		s.scanDirectives(pkg)
	}
	for _, pkg := range pkgs {
		for _, a := range s.Analyzers {
			if !s.inScope(a, pkg.ImportPath) {
				continue
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Suite: s})
		}
	}
	for _, a := range s.Analyzers {
		if a.Finish != nil {
			a.Finish(s)
		}
	}
	kept := s.diags[:0:0]
	for _, d := range s.diags {
		if s.suppressed(d) || s.fileAllowlisted(d) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// inScope reports whether the analyzer covers the import path at the
// package level. File-level allowlist entries are applied later, per
// diagnostic.
func (s *Suite) inScope(a *Analyzer, importPath string) bool {
	if !inModule(s.ModulePath, importPath) {
		return false
	}
	if a.InternalOnly && !isInternal(s.ModulePath, importPath) {
		return false
	}
	for _, entry := range a.Allowlist {
		if strings.Contains(entry, ".go") {
			continue // file entry; handled per diagnostic
		}
		if sub, ok := strings.CutSuffix(entry, "/..."); ok {
			if importPath == sub || strings.HasPrefix(importPath, sub+"/") {
				return false
			}
		} else if importPath == entry {
			return false
		}
	}
	return true
}

// inModule reports whether the import path lies in the module.
func inModule(module, importPath string) bool {
	return module != "" && (importPath == module || strings.HasPrefix(importPath, module+"/"))
}

// isInternal reports whether the module's import path lies under an
// internal/ directory.
func isInternal(module, importPath string) bool {
	return inModule(module, importPath) &&
		(strings.Contains("/"+strings.TrimPrefix(importPath, module), "/internal/") || strings.HasSuffix(importPath, "/internal"))
}

// fileAllowlisted reports whether the diagnostic's file is exempted by
// a ".go" allowlist entry (matched as a path suffix, so entries are
// written module-relative: "internal/experiments/suite.go").
func (s *Suite) fileAllowlisted(d Diagnostic) bool {
	var a *Analyzer
	for _, cand := range s.Analyzers {
		if cand.Name == d.Analyzer {
			a = cand
			break
		}
	}
	if a == nil {
		return false
	}
	for _, entry := range a.Allowlist {
		if strings.Contains(entry, ".go") && strings.HasSuffix(d.Pos.Filename, entry) {
			return true
		}
	}
	return false
}

// scanDirectives indexes every //detlint:allow comment in the package.
func (s *Suite) scanDirectives(pkg *Package) {
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//detlint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := s.allows[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					s.allows[pos.Filename] = byLine
				}
				names := byLine[pos.Line]
				if names == nil {
					names = map[string]bool{}
					byLine[pos.Line] = names
				}
				for _, n := range strings.Split(fields[0], ",") {
					names[strings.TrimSpace(n)] = true
				}
			}
		}
	}
}

// suppressed reports whether an allow directive for the diagnostic's
// analyzer sits on the flagged line or the line directly above it.
func (s *Suite) suppressed(d Diagnostic) bool {
	byLine := s.allows[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if names := byLine[line]; names[d.Analyzer] || names["all"] {
			return true
		}
	}
	return false
}

// NewSuite builds a suite over the given analyzers (nil means All).
func NewSuite(modulePath string, analyzers []*Analyzer) *Suite {
	if analyzers == nil {
		analyzers = All()
	}
	return &Suite{Analyzers: analyzers, ModulePath: modulePath}
}

// All returns the six shipped analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, WallTime, RNGSource, StreamOffset, MeterSeam, TestOnly}
}

// ByName resolves analyzer names (comma-separated, case-insensitive)
// against All; unknown names error.
func ByName(spec string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(Names(), ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty analyzer selection")
	}
	return out, nil
}

// Names lists the shipped analyzer names in stable order.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}
