package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runLeakcheck requires every `go` statement in the module to carry a
// provable join or cancel, so a fleet-scale process cannot accrete
// orphan goroutines. Accepted shapes:
//
//   - WaitGroup pairing: the goroutine body calls wg.Done() and the
//     enclosing function calls Add on the same WaitGroup (the
//     pool.ForEachJob shape).
//   - Channel join: the goroutine body sends on a channel the
//     enclosing function receives from or ranges over (the
//     `errc <- srv.ListenAndServe()` shape).
//   - Cancellation: the goroutine body observes ctx.Done(), a quit
//     channel, or ctx.Err() (see ctxcheck's observation rules).
//   - A named callee handed a context.Context argument, or a channel
//     argument the enclosing function receives from.
//
// Anything else needs `//ppep:allow leakcheck <reason>` at the go
// statement: fire-and-forget is an explicit decision, never a default.
// Test files are outside the loader's scope, so test goroutines (whose
// lifetime the testing package bounds) are not checked.
func runLeakcheck(m *Module) []Finding {
	var fs []Finding
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if gs, ok := n.(*ast.GoStmt); ok {
						checkGoStmt(m, pkg, fd, gs, &fs)
					}
					return true
				})
			}
		}
	}
	return fs
}

func checkGoStmt(m *Module, pkg *Package, fd *ast.FuncDecl, gs *ast.GoStmt, fs *[]Finding) {
	info := pkg.Info
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		if nodeObservesCtx(info, lit.Body) {
			return
		}
		if wgPaired(info, fd.Body, lit.Body) {
			return
		}
		if chanJoined(info, fd.Body, lit.Body) {
			return
		}
	} else {
		for _, arg := range gs.Call.Args {
			if isContextType(info.TypeOf(arg)) {
				return
			}
			if obj := chanObjOf(info, arg); obj != nil && receivesFrom(info, fd.Body, obj) {
				return
			}
		}
	}
	m.emit(fs, "leakcheck", gs.Pos(),
		"goroutine has no provable join or cancel: pair a WaitGroup Add/Done, join on a channel, or observe ctx.Done() in the body (or //ppep:allow leakcheck <reason>)")
}

// wgPaired reports whether the goroutine body calls Done on a
// sync.WaitGroup that the enclosing function calls Add on.
func wgPaired(info *types.Info, enclosing, body *ast.BlockStmt) bool {
	var done []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if obj := wgCallRecv(info, n, "Done"); obj != nil {
			done = append(done, obj)
		}
		return true
	})
	if len(done) == 0 {
		return false
	}
	paired := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if obj := wgCallRecv(info, n, "Add"); obj != nil {
			for _, d := range done {
				if d == obj {
					paired = true
				}
			}
		}
		return !paired
	})
	return paired
}

// wgCallRecv matches a call to sync.(*WaitGroup).<method> and returns
// the object the receiver expression is rooted at (the wg variable, or
// the struct variable holding it).
func wgCallRecv(info *types.Info, n ast.Node, method string) types.Object {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	obj := calleeOf(info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" || obj.Name() != method {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if root := rootIdent(sel.X); root != nil {
		return info.Uses[root]
	}
	return nil
}

// chanJoined reports whether the goroutine body sends on a channel the
// enclosing function receives from (directly, in a select case, or by
// ranging over it).
func chanJoined(info *types.Info, enclosing, body *ast.BlockStmt) bool {
	var sent []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SendStmt); ok {
			if obj := chanObjOf(info, s.Chan); obj != nil {
				sent = append(sent, obj)
			}
		}
		return true
	})
	for _, obj := range sent {
		if receivesFrom(info, enclosing, obj) {
			return true
		}
	}
	return false
}

// chanObjOf resolves a channel expression to the variable or field
// object it names.
func chanObjOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// receivesFrom reports whether the function body receives from or
// ranges over the given channel object.
func receivesFrom(info *types.Info, body *ast.BlockStmt, ch types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && chanObjOf(info, n.X) == ch {
				found = true
			}
		case *ast.RangeStmt:
			if chanObjOf(info, n.X) == ch {
				if _, isChan := info.TypeOf(n.X).Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
