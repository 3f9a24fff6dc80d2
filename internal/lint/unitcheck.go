package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runUnitcheck enforces dimensional discipline around the internal/units
// types (cfg.UnitsPkg), module-wide:
//
//   - conversions: a direct conversion between two distinct unit types —
//     units.Kelvin(c) on a Celsius value, including the laundered form
//     units.Kelvin(float64(c)) — silently reinterprets a number in the
//     wrong dimension. Cross-dimension moves must go through a named
//     helper in the units package (c.Kelvin()).
//   - arithmetic: float64(v) * float64(t) with two unit-typed operands
//     annihilates both dimensions at once, and w1 * w2 / w1 / w2 on the
//     same unit type silently changes dimension (watts × watts is not
//     watts). Same-type + and − are fine, as is scaling by a constant or
//     a one-sided float64 cast against a plain scalar; dimension-changing
//     math goes through units helpers (.Per, .Over, .PerRate, ...).
//
// The units package itself is exempt: it is where the escape hatches are
// allowed to live.
func runUnitcheck(m *Module, cfg Config) []Finding {
	var fs []Finding
	if cfg.UnitsPkg == "" {
		return fs
	}
	for _, pkg := range m.Packages {
		if pkg.Path == cfg.UnitsPkg {
			continue
		}
		c := &unitChecker{m: m, pkg: pkg, cfg: cfg, fs: &fs}
		for _, f := range pkg.Files {
			ast.Inspect(f, c.inspect)
		}
	}
	return fs
}

type unitChecker struct {
	m   *Module
	pkg *Package
	cfg Config
	fs  *[]Finding
}

// unitType returns the named unit type behind t (a defined type from
// cfg.UnitsPkg whose underlying type is a float), or nil.
func (c *unitChecker) unitType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != c.cfg.UnitsPkg {
		return nil
	}
	if b, ok := named.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
		return named
	}
	return nil
}

func (c *unitChecker) inspect(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		c.checkConversion(n)
	case *ast.BinaryExpr:
		c.checkArith(n)
	}
	return true
}

// checkConversion flags T2(x) — and the laundered T2(float64(x)) — where
// x already carries a distinct unit type: reinterpreting kelvin as
// celsius (or MHz as GHz) is a silent dimension error; the units package
// has (or should grow) a named helper for every legitimate move.
func (c *unitChecker) checkConversion(call *ast.CallExpr) {
	if !c.pkg.Info.Types[call.Fun].IsType() || len(call.Args) != 1 {
		return
	}
	dst := c.unitType(c.pkg.Info.TypeOf(call.Fun))
	if dst == nil {
		return
	}
	arg := ast.Unparen(call.Args[0])
	src := c.unitType(c.pkg.Info.TypeOf(arg))
	if src == nil {
		// Laundered form: T2(float64(x)).
		if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) == 1 &&
			c.pkg.Info.Types[inner.Fun].IsType() {
			if b, ok := c.pkg.Info.TypeOf(inner.Fun).(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				src = c.unitType(c.pkg.Info.TypeOf(ast.Unparen(inner.Args[0])))
			}
		}
	}
	if src != nil && src.Obj() != dst.Obj() {
		c.m.emit(c.fs, "unitcheck", call.Pos(),
			"conversion from %s to %s crosses dimensions; use a named conversion helper from the units package",
			src.Obj().Name(), dst.Obj().Name())
	}
}

// checkArith flags unit-annihilating double casts and same-unit
// dimension-changing multiplication/division.
func (c *unitChecker) checkArith(b *ast.BinaryExpr) {
	switch b.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return
	}
	sx := c.castOfUnit(ast.Unparen(b.X))
	sy := c.castOfUnit(ast.Unparen(b.Y))
	if sx != nil && sy != nil && (sx.Obj() != sy.Obj() || b.Op == token.MUL || b.Op == token.QUO) {
		c.m.emit(c.fs, "unitcheck", b.OpPos,
			"float64 casts of %s and %s annihilate both dimensions in one expression; use a units conversion helper (or a one-sided cast against a plain scalar)",
			sx.Obj().Name(), sy.Obj().Name())
		return
	}
	if b.Op != token.MUL && b.Op != token.QUO {
		return
	}
	if c.isConst(b.X) || c.isConst(b.Y) {
		return // scaling by a dimensionless constant
	}
	tx := c.unitType(c.pkg.Info.TypeOf(b.X))
	ty := c.unitType(c.pkg.Info.TypeOf(b.Y))
	if tx != nil && ty != nil && tx.Obj() == ty.Obj() {
		c.m.emit(c.fs, "unitcheck", b.OpPos,
			"%q on two %s values silently changes dimension; use a units helper (.Per for ratios, a typed product helper otherwise)",
			b.Op, tx.Obj().Name())
	}
}

// castOfUnit returns the unit type behind a direct float64(x)/float32(x)
// conversion of a unit-typed expression, or nil. Provenance is shallow on
// purpose: float64(w) * scalar is the sanctioned one-sided idiom, and a
// cast wrapping a larger expression already resolved its dimensions.
func (c *unitChecker) castOfUnit(e ast.Expr) *types.Named {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || !c.pkg.Info.Types[call.Fun].IsType() {
		return nil
	}
	b, ok := c.pkg.Info.TypeOf(call.Fun).(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return nil
	}
	return c.unitType(c.pkg.Info.TypeOf(ast.Unparen(call.Args[0])))
}

func (c *unitChecker) isConst(e ast.Expr) bool {
	return c.pkg.Info.Types[ast.Unparen(e)].Value != nil
}
