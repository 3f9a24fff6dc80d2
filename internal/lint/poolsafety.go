package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolDispatcher is the name of the module's one worker-pool dispatcher,
// pool.ForEachJob: poolsafety checks the func literal passed as its last
// argument.
const poolDispatcher = "ForEachJob"

// runPoolSafety checks func literals dispatched onto the bounded worker
// pool (calls to poolDispatcher). Worker bodies run concurrently, so
// they may only:
//
//   - write through an index expression that mentions the worker's own
//     index parameter (the owned-slot pattern: results[i] = ...), or
//   - write shared state under a mutex taken inside the body.
//
// Writes to package-level variables or to captured variables (including
// append, which reads and writes the captured slice header) outside
// those two shapes are data races the -race runs may only catch
// probabilistically; the analyzer flags them deterministically.
func runPoolSafety(m *Module) []Finding {
	var fs []Finding
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeOf(pkg.Info, call)
				if obj == nil || obj.Name() != poolDispatcher || !m.inModule(obj.Pkg().Path()) {
					return true
				}
				if len(call.Args) == 0 {
					return true
				}
				lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
				if !ok {
					return true
				}
				checkWorkerBody(m, pkg, lit, &fs)
				return true
			})
		}
	}
	return fs
}

func checkWorkerBody(m *Module, pkg *Package, lit *ast.FuncLit, fs *[]Finding) {
	params := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if o := pkg.Info.Defs[name]; o != nil {
				params[o] = true
			}
		}
	}
	// Locals declared inside the body are worker-private.
	locals := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if o := pkg.Info.Defs[id]; o != nil {
							locals[o] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if o := pkg.Info.Defs[name]; o != nil {
					locals[o] = true
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if o := pkg.Info.Defs[id]; o != nil {
						locals[o] = true
					}
				}
			}
		}
		return true
	})

	if bodyTakesLock(pkg.Info, lit.Body) {
		return // synchronized; trust the mutex discipline
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkWorkerWrite(m, pkg, lhs, params, locals, fs)
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(m, pkg, n.X, params, locals, fs)
		}
		return true
	})
}

// bodyTakesLock reports whether the worker body calls a sync lock method,
// in which case its shared writes are presumed guarded.
func bodyTakesLock(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := calleeOf(info, call); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "sync" && lockMethods[obj.Name()] {
			found = true
		}
		return !found
	})
	return found
}

func checkWorkerWrite(m *Module, pkg *Package, lhs ast.Expr, params, locals map[types.Object]bool, fs *[]Finding) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := pkg.Info.Uses[lhs]
		if obj == nil || locals[obj] || params[obj] {
			return
		}
		if isPackageLevel(obj) {
			m.emit(fs, "poolsafety", lhs.Pos(),
				"worker body writes package-level %s without synchronization", lhs.Name)
			return
		}
		m.emit(fs, "poolsafety", lhs.Pos(),
			"worker body writes captured variable %s without synchronization", lhs.Name)
	case *ast.IndexExpr:
		base := rootIdent(lhs.X)
		if base == nil {
			return
		}
		obj := pkg.Info.Uses[base]
		if obj == nil || locals[obj] || params[obj] {
			return
		}
		// Owned-slot pattern: the index mentions a worker parameter, so
		// each worker touches a disjoint element.
		if mentionsAny(pkg.Info, lhs.Index, params) {
			return
		}
		m.emit(fs, "poolsafety", lhs.Pos(),
			"worker body writes shared %s at an index not derived from the worker's parameter", base.Name)
	case *ast.SelectorExpr:
		base := rootIdent(lhs)
		if base == nil {
			return
		}
		obj := pkg.Info.Uses[base]
		if obj == nil || locals[obj] || params[obj] {
			return
		}
		m.emit(fs, "poolsafety", lhs.Pos(),
			"worker body writes field of shared %s without synchronization", base.Name)
	}
}

// rootIdent returns the leftmost identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mentionsAny reports whether expr references any of the given objects.
func mentionsAny(info *types.Info, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil && objs[o] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
