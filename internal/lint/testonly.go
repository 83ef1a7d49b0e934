package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly keeps test instruments out of the build: it reports every
// package-level function and method declared under internal/ that no
// non-test file in the module uses. Such a declaration is either dead
// (delete it with its test), an instrument of its own package's tests
// (move it into that package's _test.go files), or an instrument that
// tests in several packages share and that needs the package's
// unexported state (keep it with a detlint allow directive for testonly
// naming the test packages that use it).
//
// Uses are matched by (package path, receiver type, name), because a
// package type-checked from source and the same package imported from
// export data are distinct go/types objects. A call through an
// interface resolves to the interface's method, not the concrete one,
// so a method whose name and signature match a method of any interface
// the module declares or imports (sort.Interface, heap.Interface,
// fmt.Stringer, error, ...) counts as used. A function's calls to
// itself do not count.
//
// The finding is only meaningful over the whole module: on a partial
// pattern such as ./internal/graph every export looks unused. Finish
// therefore stays silent unless the root package and a cmd/ package
// were loaded and every module package a loaded package imports was
// loaded too.
var TestOnly = &Analyzer{
	Name:   "testonly",
	Doc:    "every package-level function and method under internal/ has a caller outside the tests",
	Run:    runTestOnly,
	Finish: finishTestOnly,
}

// funcKey names a function or method independently of which copy of
// its package (source or export data) the object came from.
type funcKey struct{ pkg, recv, name string }

type testonlyDecl struct {
	key funcKey
	sig string // methodSig of a method, "" for a function
	pos token.Position
}

// testonlyFacts is the cross-package state the analyzer accumulates.
type testonlyFacts struct {
	loaded   map[string]bool // module packages analyzed
	imported map[string]bool // module packages some loaded package imports
	decls    []testonlyDecl
	used     map[funcKey]bool
	// ifaceMethods holds methodSig of every method of every named
	// interface in the loaded packages and their transitive imports.
	ifaceMethods map[string]bool
	seen         map[*types.Package]bool
}

func newTestonlyFacts() *testonlyFacts {
	f := &testonlyFacts{
		loaded:       map[string]bool{},
		imported:     map[string]bool{},
		used:         map[funcKey]bool{},
		ifaceMethods: map[string]bool{},
		seen:         map[*types.Package]bool{},
	}
	f.addInterface(types.Universe.Lookup("error").Type())
	return f
}

func runTestOnly(pass *Pass) {
	facts, pkg := pass.Suite.testonly, pass.Pkg
	facts.loaded[pkg.ImportPath] = true
	for _, imp := range pkg.Types.Imports() {
		if inModule(pass.Suite.ModulePath, imp.Path()) {
			facts.imported[imp.Path()] = true
		}
	}
	facts.addInterfaces(pkg.Types)
	declares := isInternal(pass.Suite.ModulePath, pkg.ImportPath)
	for _, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			var self funcKey
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				self = keyOf(fn)
				if declares && fn != nil && fd.Name.Name != "init" {
					d := testonlyDecl{key: self, pos: pass.Position(fd.Name.Pos())}
					if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
						d.sig = methodSig(fn.Name(), sig)
					}
					facts.decls = append(facts.decls, d)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
						if key := keyOf(fn); key != self {
							facts.used[key] = true
						}
					}
				}
				return true
			})
		}
	}
}

func finishTestOnly(s *Suite) {
	facts := s.testonly
	if !facts.wholeModule(s.ModulePath) {
		return
	}
	for _, d := range facts.decls {
		if facts.used[d.key] || facts.ifaceMethods[d.sig] {
			continue
		}
		s.report(Diagnostic{
			Pos:      d.pos,
			Analyzer: "testonly",
			Message: d.key.String() + " has no caller outside the tests: delete it, move it into its package's _test.go files, " +
				"or allow it naming the test packages that use it",
		})
	}
}

// wholeModule reports whether the loaded set is closed over the
// module: the root package and a command were loaded, and no loaded
// package imports a module package that was left out.
func (f *testonlyFacts) wholeModule(module string) bool {
	if !f.loaded[module] {
		return false
	}
	cmd := false
	for path := range f.loaded {
		cmd = cmd || strings.HasPrefix(path, module+"/cmd/")
	}
	for path := range f.imported {
		if !f.loaded[path] {
			return false
		}
	}
	return cmd
}

// addInterfaces records the methods of every named interface declared
// in pkg or anything it imports, transitively.
func (f *testonlyFacts) addInterfaces(pkg *types.Package) {
	if f.seen[pkg] {
		return
	}
	f.seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			f.addInterface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		f.addInterfaces(imp)
	}
}

// addInterface records the methods of t if it is an interface.
func (f *testonlyFacts) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		f.ifaceMethods[methodSig(m.Name(), m.Type().(*types.Signature))] = true
	}
}

// methodSig renders a method's name and parameter and result types,
// without the receiver or parameter names, with packages by path.
func methodSig(name string, sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString(name)
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("|")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
			b.WriteString(",")
		}
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// keyOf resolves a function or method to its copy-independent key
// (an instance of a generic one shares its origin's key); the zero key
// for nil.
func keyOf(fn *types.Func) funcKey {
	if fn == nil || fn.Pkg() == nil {
		return funcKey{}
	}
	key := funcKey{pkg: fn.Pkg().Path(), name: fn.Name()}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key.recv = named.Obj().Name()
		}
	}
	return key
}

func (k funcKey) String() string {
	name := k.pkg[strings.LastIndex(k.pkg, "/")+1:] + "."
	if k.recv != "" {
		name += k.recv + "."
	}
	return name + k.name
}
