// Shared plumbing for the six analyzers: the repo package paths the
// invariants are phrased in, and small go/types helpers. The paths are
// spelled as constants (not derived from the module path) because the
// invariants are about THESE packages — the xrand streams, the overlay
// meter, the transport seam — and the analysistest fixtures import the
// real ones.
package lint

import (
	"go/ast"
	"go/types"
)

const (
	pkgXrand     = "p2psize/internal/xrand"
	pkgOverlay   = "p2psize/internal/overlay"
	pkgMetrics   = "p2psize/internal/metrics"
	pkgTransport = "p2psize/internal/transport"
	pkgRegistry  = "p2psize/internal/registry"
	pkgCluster   = "p2psize/internal/cluster"
)

// walltimeAllowlist are the reviewed wall-clock sites: suite timing
// reports wall-clock cost (it never feeds estimator arithmetic), the
// transport owns RTO/retry timers, and the cluster daemons are the
// deployment edge.
var walltimeAllowlist = []string{
	pkgTransport + "/...",
	pkgCluster + "/...",
	"internal/experiments/suite.go",
}

// deterministicAllowlist are the packages outside the determinism
// contract entirely: the transport and cluster layers sit below the
// metering seam and talk to real sockets and clocks.
var deterministicAllowlist = []string{
	pkgTransport + "/...",
	pkgCluster + "/...",
}

// calleeFunc resolves a call's callee to its function or method object,
// looking through selectors and parenthesization. Returns nil for
// builtins, type conversions and indirect calls through non-selector
// expressions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package the function or
// method is declared in ("" for builtins and error.Error).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isNamedFrom reports whether t (possibly behind pointers) is the
// named type pkgPath.name.
func isNamedFrom(t types.Type, pkgPath, name string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// identObj resolves an identifier to its object through Uses/Defs.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// isAppendCall reports whether the call is the append builtin.
func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := identObj(info, id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// mentionsObj reports whether the expression tree mentions an
// identifier bound to obj.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && identObj(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
