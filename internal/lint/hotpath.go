package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockMethods are the sync primitives a hot-path function must not call.
var lockMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"Do": true, "Wait": true, "TryLock": true, "TryRLock": true,
}

// runHotpath checks every function in the hot closure — the
// //ppep:hotpath roots and, transitively, every module function they
// call — for the costs the compiler's escape analysis does not report,
// or that are not allocations at all:
//
//   - append (growth reallocates, yet -m prints no verdict for it)
//   - non-constant string concatenation and string<->[]byte/[]rune or
//     integer->string conversions (the result is heap-allocated past
//     32 bytes even when it does not escape)
//   - defer, go, and channel operations
//   - any call into fmt, time.Now/time.Since, and sync lock methods
//   - dynamic calls (interface methods, function values), which the
//     walk cannot follow
//
// Every other heap allocation — make/new, slice and map literals,
// &T{...}, interface boxing, variadic argument slices, closures — has an
// explicit escape-analysis verdict, so perfcheck holds the same closure
// to the compiler's decision instead of an AST guess. Calls into other
// standard-library packages (math, math/rand methods, hash, ...) are
// trusted not to allocate; the walk covers module code only.
//
// An //ppep:allow hotpath directive on a call line also stops the walk
// into that callee — the sanctioned escape hatch for amortized slow
// paths (per-phase memo refreshes, amortized buffer growth) — and counts
// as that directive's use.
func runHotpath(m *Module) []Finding {
	var fs []Finding
	for _, h := range m.hotClosure() {
		where := "in " + trimModule(h.fn.Obj.FullName(), m.Path)
		if h.fn != h.root {
			where += ", reached from hot-path root " + trimModule(h.root.Obj.FullName(), m.Path)
		}
		checkHotBody(m, h.fn, where, &fs)
	}
	return fs
}

// hotFunc is one function of the hot closure, with the root whose walk
// reached it first (for finding messages).
type hotFunc struct{ fn, root *FuncNode }

// hotClosure is the one hot-closure walk, shared by hotpath and
// perfcheck: every //ppep:hotpath root plus the module functions it
// transitively calls through static calls, stopping at call lines that
// carry //ppep:allow hotpath. The walk itself marks no directive used;
// hotpath's own call check does, so perfcheck's reuse of the closure
// leaves the suppression census untouched. The result is sorted by name.
func (m *Module) hotClosure() []hotFunc {
	visited := map[string]bool{}
	var out []hotFunc
	var visit func(fn, root *FuncNode)
	visit = func(fn, root *FuncNode) {
		full := fn.Obj.FullName()
		if visited[full] {
			return
		}
		visited[full] = true
		out = append(out, hotFunc{fn, root})
		if fn.Decl.Body == nil {
			return
		}
		info := fn.Pkg.Info
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeOf(info, call)
			if obj == nil || obj.Pkg() == nil || !m.inModule(obj.Pkg().Path()) {
				return true
			}
			if m.hasAllow("hotpath", m.Fset.Position(call.Pos())) {
				return true
			}
			if callee := m.Funcs[obj.FullName()]; callee != nil {
				visit(callee, root)
			}
			return true
		})
	}
	var roots []*FuncNode
	for _, fn := range m.Funcs {
		if fn.Hot {
			roots = append(roots, fn)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return roots[i].Obj.FullName() < roots[j].Obj.FullName()
	})
	for _, r := range roots {
		visit(r, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].fn.Obj.FullName() < out[j].fn.Obj.FullName()
	})
	return out
}

func trimModule(s, modPath string) string {
	out := ""
	for i := 0; i < len(s); {
		if j := i + len(modPath) + 1; j <= len(s) && s[i:j] == modPath+"/" {
			i = j
			for i < len(s) && s[i] != '.' && s[i] != ')' {
				out += string(s[i])
				i++
			}
			continue
		}
		out += string(s[i])
		i++
	}
	return out
}

// checkHotBody reports the hotpath findings in one function of the hot
// closure.
func checkHotBody(m *Module, fn *FuncNode, where string, fs *[]Finding) {
	if fn.Decl.Body == nil {
		return
	}
	info := fn.Pkg.Info
	emit := func(pos token.Pos, format string, args ...any) {
		m.emit(fs, "hotpath", pos, format+" (%s)", append(args, where)...)
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			emit(n.Pos(), "go statement on the hot path")
		case *ast.DeferStmt:
			emit(n.Pos(), "defer on the hot path (may allocate, always costs)")
		case *ast.SendStmt:
			emit(n.Pos(), "channel send blocks the hot path")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				emit(n.Pos(), "channel receive blocks the hot path")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) && info.Types[n].Value == nil {
				emit(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				emit(n.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			checkHotCall(m, info, n, emit)
		}
		return true
	})
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// calleeOf resolves a call expression to its static *types.Func, or nil
// for indirect calls through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// checkHotCall reports a hot call that allocates, blocks, reads the
// clock, or cannot be followed, and resolves the walk's edge: an
// in-module callee behind an //ppep:allow hotpath call line is a
// sanctioned boundary (this marks the directive used), and one with no
// source is a finding because the walk cannot see into it.
func checkHotCall(m *Module, info *types.Info, n *ast.CallExpr, emit func(token.Pos, string, ...any)) {
	tv := info.Types[n.Fun]
	switch {
	case tv.IsType(): // conversion
		if len(n.Args) == 1 && convAllocates(tv.Type, info.TypeOf(n.Args[0])) {
			emit(n.Pos(), "conversion to %s allocates", tv.Type)
		}
		return
	case tv.IsBuiltin():
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
			emit(n.Pos(), "append allocates")
		}
		return
	}

	obj := calleeOf(info, n)
	if obj == nil {
		emit(n.Pos(), "indirect call cannot be verified allocation-free")
		return
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		emit(n.Pos(), "dynamic call %s cannot be verified allocation-free", obj.Name())
		return
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return // universe scope (error.Error on named error types, etc.)
	}
	full := obj.FullName()
	switch {
	case pkg.Path() == "fmt":
		emit(n.Pos(), "call to %s formats and allocates", full)
	case full == "time.Now" || full == "time.Since":
		emit(n.Pos(), "%s on the hot path is slow and nondeterministic", full)
	case pkg.Path() == "sync" && lockMethods[obj.Name()]:
		emit(n.Pos(), "%s takes a lock on the hot path", full)
	case m.inModule(pkg.Path()):
		if m.allowedAt("hotpath", m.Fset.Position(n.Pos())) {
			return
		}
		if m.Funcs[full] == nil {
			emit(n.Pos(), "no source found for %s called on the hot path", full)
		}
	}
}

// convAllocates reports whether the conversion to `to` from `from`
// allocates: string<->[]byte/[]rune both ways, and integer->string.
func convAllocates(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	toStr, fromStr := isStringType(to), isStringType(from)
	if toStr && byteOrRuneSlice(from) {
		return true
	}
	if fromStr && byteOrRuneSlice(to) {
		return true
	}
	if toStr && !fromStr {
		if b, ok := from.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return true
		}
	}
	return false
}

func byteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
