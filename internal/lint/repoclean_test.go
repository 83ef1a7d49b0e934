package lint

import (
	"fmt"
	"strings"
	"testing"
)

// TestRepoClean runs the full analyzer suite over the whole module —
// the same gate CI applies with `go run ./cmd/detlint ./...` — so a
// determinism regression fails `go test ./...` locally, not just CI.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	dir, err := NewLoader("").ModuleDir()
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(dir)
	module, err := loader.Module()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	// Guard against the suite silently analyzing nothing: the module
	// has dozens of packages and must keep having them.
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from %s; loader lost the module", len(pkgs), dir)
	}
	suite := NewSuite(module, nil)
	for _, d := range suite.Run(pkgs) {
		t.Errorf("detlint finding in clean repo: %s", d)
	}
	if !suite.testonly.wholeModule(module) {
		t.Error("testonly took ./... for a partial pattern and checked nothing")
	}
}

// TestTestOnlySubPattern: on ./internal/graph alone every export of the
// package looks unused, and testonly must say nothing.
func TestTestOnlySubPattern(t *testing.T) {
	dir, err := NewLoader("").ModuleDir()
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(dir)
	pkgs, err := loader.Load("./internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	if diags := NewSuite("p2psize", []*Analyzer{TestOnly}).Run(pkgs); len(diags) != 0 {
		t.Fatalf("testonly reported on a sub-pattern: %v", diags)
	}
}

// ModuleDir returns the enclosing module's root directory; the
// repo-self-check test anchors its ./... pattern there rather than at
// the test's own package directory.
func (l *Loader) ModuleDir() (string, error) {
	out, err := l.goList("-m", "-f", "{{.Dir}}")
	if err != nil {
		return "", err
	}
	dir := strings.TrimSpace(string(out))
	if dir == "" {
		return "", fmt.Errorf("detlint: no module found at %q", l.Dir)
	}
	return dir, nil
}
