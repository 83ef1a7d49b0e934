// Package loading for detlint. The analyzers need fully type-checked
// packages (map-ness of a ranged expression, the *xrand.Rand-ness of a
// call argument, constant evaluation of StreamOffset fields), and the
// module deliberately has no dependency on golang.org/x/tools, so the
// loader does what go/packages would do, with the standard library
// only: one `go list -e -export -deps -json` invocation resolves the
// pattern set and yields compiler export data for every dependency
// (stdlib included — the go command builds it into the build cache on
// demand, no network), target packages are parsed from source, and
// go/types checks them with an importer that reads the export data.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Loader loads and type-checks packages of the enclosing module.
// It is not safe for concurrent use (the underlying gc importer is
// stateful); detlint runs are sequential.
type Loader struct {
	// Dir is where `go list` runs; any directory inside the module.
	Dir string

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
	module  string
}

// NewLoader returns a loader rooted at dir ("" for the process cwd).
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("detlint: no export data for %q (not reachable from the listed patterns)", path)
		}
		return os.Open(f)
	})
	return l
}

// Module returns the enclosing module's path (cached).
func (l *Loader) Module() (string, error) {
	if l.module != "" {
		return l.module, nil
	}
	out, err := l.goList("-m", "-f", "{{.Path}}")
	if err != nil {
		return "", err
	}
	l.module = strings.TrimSpace(string(out))
	if l.module == "" {
		return "", fmt.Errorf("detlint: no module found at %q", l.Dir)
	}
	return l.module, nil
}

// Load resolves the patterns and returns the matched module packages,
// parsed and type-checked. Test files are not loaded: the invariants
// guard shipped code, and tests read wall clocks and build colliding
// descriptors on purpose.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range listed {
		if p.Standard || p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := l.check(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// list runs go list over the patterns, records every export data file
// it reports, and returns the listed packages.
func (l *Loader) list(patterns []string) ([]listPackage, error) {
	args := append([]string{"-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Module,Error"}, patterns...)
	out, err := l.goList(args...)
	if err != nil {
		return nil, err
	}
	var listed []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("detlint: decoding go list output: %w", err)
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("detlint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		listed = append(listed, p)
	}
	return listed, nil
}

func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("detlint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// check parses and type-checks one package from source.
func (l *Loader) check(importPath, dir string, fileNames []string) (*Package, error) {
	var (
		syntax []*ast.File
		files  []string
	)
	for _, name := range fileNames {
		full := filepath.Join(dir, name)
		af, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
		files = append(files, full)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("detlint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Syntax:     syntax,
		Types:      tpkg,
		Info:       info,
	}, nil
}
