package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runDeterminism enforces reproducibility in the simulation packages
// (cfg.DeterminismPkgs):
//
//   - no time.Now / time.Since / time.Until — campaign results must not
//     depend on the wall clock
//   - no package-level math/rand functions (rand.Float64, rand.Intn,
//     rand.Shuffle, ...): randomness must flow through a seeded
//     *rand.Rand so a fixed seed reproduces the run bit-for-bit
//   - no `range` over a map when the loop body has order-dependent
//     effects — appending to a slice, accumulating into a float, or
//     writing output — unless the keys are collected and sorted first
//     (or the appended slice is itself sorted before use in the same
//     function). Map iteration order is randomized by the runtime, so
//     an unsorted range with such effects silently breaks the golden
//     fingerprint tests.
func runDeterminism(m *Module, cfg Config) []Finding {
	var fs []Finding
	for _, pkg := range m.Packages {
		if !cfg.DeterminismPkgs[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c := &detChecker{m: m, pkg: pkg, fs: &fs}
				c.sortedSlices = sortedSliceNames(pkg.Info, fd.Body)
				ast.Inspect(fd.Body, c.inspect)
			}
		}
	}
	return fs
}

type detChecker struct {
	m   *Module
	pkg *Package
	fs  *[]Finding
	// sortedSlices names slices that are passed to a sort function
	// somewhere in the enclosing function: appending to them inside a
	// map range is order-independent once sorted.
	sortedSlices map[types.Object]bool
}

func (c *detChecker) inspect(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		obj := calleeOf(c.pkg.Info, n)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		full := obj.FullName()
		switch {
		case full == "time.Now" || full == "time.Since" || full == "time.Until":
			c.m.emit(c.fs, "determinism", n.Pos(),
				"%s makes simulation output depend on the wall clock; inject a deterministic clock", full)
		case obj.Pkg().Path() == "math/rand" && !randConstructor[obj.Name()] && isPackageLevelRand(c.pkg.Info, n):
			c.m.emit(c.fs, "determinism", n.Pos(),
				"global math/rand.%s is seeded from runtime state; use a seeded *rand.Rand", obj.Name())
		}
	case *ast.RangeStmt:
		c.checkMapRange(n)
	}
	return true
}

// randConstructor names the math/rand functions that build explicitly
// seeded generators — the sanctioned pattern, not a use of the global
// source.
var randConstructor = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// isPackageLevelRand distinguishes rand.Float64() (package-level, banned)
// from r.Float64() on a *rand.Rand value (seeded, fine).
func isPackageLevelRand(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return true
		}
	}
	return false
}

// checkMapRange flags `for k, v := range m` over a map whose body has
// order-dependent effects, unless the range is over sorted keys (not a
// map at all) or its effects feed slices that are sorted afterwards.
func (c *detChecker) checkMapRange(rs *ast.RangeStmt) {
	t := c.pkg.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if effect := c.orderDependentEffect(rs.Body); effect != "" {
		c.m.emit(c.fs, "determinism", rs.Pos(),
			"map iteration order is random and the loop body %s; collect and sort the keys first", effect)
	}
}

// orderDependentEffect scans a map-range body for effects whose result
// depends on iteration order. Returns a description of the first one
// found, or "" if the body is order-independent.
//
// Keyed writes (m2[k] = v, m2[k] += v, arr[idx] = v) are fine: each
// iteration touches its own slot, as are writes to variables declared
// inside the loop body (reset every iteration). Appends are fine when
// the destination slice is later sorted in the same function. Float
// accumulation into a loop-external variable, unsorted appends, and any
// output call (fmt printing, io writes) are flagged.
func (c *detChecker) orderDependentEffect(body *ast.BlockStmt) string {
	locals := bodyLocals(c.pkg.Info, body)
	effect := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(c.pkg.Info, call) {
					if i < len(n.Lhs) && (c.sortedDest(n.Lhs[i]) || c.localDest(n.Lhs[i], locals)) {
						continue
					}
					effect = "appends to a slice (unsorted afterwards)"
					return false
				}
			}
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN ||
				n.Tok == token.MUL_ASSIGN || n.Tok == token.QUO_ASSIGN {
				for _, lhs := range n.Lhs {
					// Keyed writes are per-slot, order-independent.
					if _, keyed := ast.Unparen(lhs).(*ast.IndexExpr); keyed {
						continue
					}
					if c.localDest(lhs, locals) {
						continue
					}
					if t := c.pkg.Info.TypeOf(lhs); t != nil {
						if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
							effect = "accumulates into a float (FP addition is not associative)"
							return false
						}
					}
				}
			}
		case *ast.CallExpr:
			if obj := calleeOf(c.pkg.Info, n); obj != nil && obj.Pkg() != nil {
				p := obj.Pkg().Path()
				if p == "fmt" && obj.Name() != "Sprintf" && obj.Name() != "Errorf" && obj.Name() != "Sprint" {
					effect = "emits output via fmt." + obj.Name()
					return false
				}
			}
		}
		return true
	})
	return effect
}

// localDest reports whether the write target's root is declared inside
// the range body, making it per-iteration state.
func (c *detChecker) localDest(lhs ast.Expr, locals map[types.Object]bool) bool {
	id := rootIdent(lhs)
	if id == nil {
		return false
	}
	obj := c.pkg.Info.Uses[id]
	if obj == nil {
		obj = c.pkg.Info.Defs[id]
	}
	return obj != nil && locals[obj]
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

// bodyLocals collects every object declared inside the block: :=
// definitions, var specs, and nested range variables.
func bodyLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if o := info.Defs[id]; o != nil {
							out[o] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if o := info.Defs[name]; o != nil {
					out[o] = true
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if o := info.Defs[id]; o != nil {
						out[o] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// sortedDest reports whether an append destination is a slice that the
// enclosing function sorts.
func (c *detChecker) sortedDest(lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.pkg.Info.Defs[id]
	if obj == nil {
		obj = c.pkg.Info.Uses[id]
	}
	return obj != nil && c.sortedSlices[obj]
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	return info.Types[call.Fun].IsBuiltin()
}

// sortFuncs are the stdlib entry points that make a slice's final order
// independent of how it was filled.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedSliceNames collects every object passed as the first argument to
// a stdlib sort call anywhere in the function body.
func sortedSliceNames(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		obj := calleeOf(info, call)
		if obj == nil || obj.Pkg() == nil || !sortFuncs[obj.Pkg().Path()+"."+obj.Name()] {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		// sort.Sort/Stable take an Interface wrapping the slice; look
		// through a conversion like sort.Float64Slice(xs).
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 && info.Types[conv.Fun].IsType() {
			arg = ast.Unparen(conv.Args[0])
		}
		if id, ok := arg.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil {
				out[o] = true
			}
		}
		return true
	})
	return out
}
