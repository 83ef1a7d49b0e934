package lint

// Unit coverage for the framework pieces the fixtures exercise only
// implicitly: scope resolution, the file-suffix allowlist, directive
// suppression placement, and analyzer name resolution.

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestInScope(t *testing.T) {
	a := &Analyzer{
		Name:         "probe",
		InternalOnly: true,
		Allowlist:    []string{"p2psize/internal/transport/...", "p2psize/internal/cluster/...", "internal/experiments/suite.go"},
	}
	s := NewSuite("p2psize", []*Analyzer{a})
	cases := []struct {
		path string
		want bool
	}{
		{"p2psize/internal/xrand", true},
		{"p2psize/internal/experiments", true}, // file entry must not exempt the package
		{"p2psize/internal/transport", false},
		{"p2psize/internal/transport/scopefix", false}, // /... covers the subtree
		{"p2psize/internal/cluster", false},
		{"p2psize", false},              // InternalOnly excludes the module root
		{"p2psize/cmd/figures", false},  // ...and cmd
		{"other/internal/thing", false}, // outside the module
	}
	for _, c := range cases {
		if got := s.inScope(a, c.path); got != c.want {
			t.Errorf("inScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}

	wide := &Analyzer{Name: "wide"}
	sw := NewSuite("p2psize", []*Analyzer{wide})
	for _, path := range []string{"p2psize", "p2psize/cmd/figures", "p2psize/internal/xrand"} {
		if !sw.inScope(wide, path) {
			t.Errorf("module-wide analyzer out of scope for %q", path)
		}
	}
}

func TestExactAllowlistEntry(t *testing.T) {
	a := &Analyzer{Name: "probe", Allowlist: []string{"p2psize/internal/overlay"}}
	s := NewSuite("p2psize", []*Analyzer{a})
	if s.inScope(a, "p2psize/internal/overlay") {
		t.Error("exact allowlist entry not honored")
	}
	if !s.inScope(a, "p2psize/internal/overlaytools") {
		t.Error("exact entry must not cover sibling prefixes")
	}
}

func TestFileAllowlist(t *testing.T) {
	a := &Analyzer{Name: "probe", Allowlist: []string{"internal/experiments/suite.go"}}
	s := NewSuite("p2psize", []*Analyzer{a})
	d := Diagnostic{Analyzer: "probe", Pos: token.Position{Filename: "/root/repo/internal/experiments/suite.go", Line: 3}}
	if !s.fileAllowlisted(d) {
		t.Error("suffix file entry not honored")
	}
	d.Pos.Filename = "/root/repo/internal/experiments/static.go"
	if s.fileAllowlisted(d) {
		t.Error("file entry leaked onto a sibling file")
	}
}

func TestDirectivePlacement(t *testing.T) {
	src := `package p

import "time"

func SameLine() int64 {
	return time.Now().UnixNano() //detlint:allow walltime — same-line directive
}

func LineAbove() int64 {
	//detlint:allow walltime — directive on the line above
	return time.Now().UnixNano()
}

func WrongName() int64 {
	//detlint:allow maprange — names another analyzer; no suppression
	return time.Now().UnixNano()
}

func TooFar() int64 {
	//detlint:allow walltime — two lines up does not count

	return time.Now().UnixNano()
}
`
	dir := t.TempDir()
	writeFile(t, dir, "p.go", src)
	pkg, err := NewLoader("").LoadDir(dir, "p2psize/internal/dirfix")
	if err != nil {
		t.Fatal(err)
	}
	diags := NewSuite("p2psize", []*Analyzer{WallTime}).Run([]*Package{pkg})
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (WrongName and TooFar): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "walltime" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("maprange, WALLTIME")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0] != MapRange || as[1] != WallTime {
		t.Fatalf("ByName resolved %v", as)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("expected unknown-analyzer error, got %v", err)
	}
	if _, err := ByName(" , "); err == nil {
		t.Fatal("expected error on empty selection")
	}
	if len(Names()) != 6 {
		t.Fatalf("expected 6 analyzers, have %v", Names())
	}
}

// TestTestOnlyFixtures loads the fixture as a whole module: the
// declaring package, the root package and a command.
func TestTestOnlyFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{TestOnly}, fixturePath("tofix"), "p2psize", "p2psize/cmd/tocmd")
}

// TestTestOnlyPartialPattern: without the root package or a command
// every export would look unused, so testonly reports nothing.
func TestTestOnlyPartialPattern(t *testing.T) {
	loader := NewLoader("")
	tofix, err := loader.LoadDir(filepath.Join("testdata", "src", "p2psize", "internal", "tofix"), fixturePath("tofix"))
	if err != nil {
		t.Fatal(err)
	}
	root, err := loader.LoadDir(filepath.Join("testdata", "src", "p2psize"), "p2psize", tofix)
	if err != nil {
		t.Fatal(err)
	}
	cmd, err := loader.LoadDir(filepath.Join("testdata", "src", "p2psize", "cmd", "tocmd"), "p2psize/cmd/tocmd", tofix)
	if err != nil {
		t.Fatal(err)
	}
	for name, pkgs := range map[string][]*Package{
		"declaring package only": {tofix},
		"no command":             {tofix, root},
		"no root package":        {tofix, cmd},
	} {
		if diags := NewSuite("p2psize", []*Analyzer{TestOnly}).Run(pkgs); len(diags) != 0 {
			t.Errorf("%s: got %v, want no findings", name, diags)
		}
	}
}
