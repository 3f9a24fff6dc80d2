package lint

import (
	"go/token"
	"sort"
)

// runPerfcheck enforces three compiler-verified performance budgets
// (docs/LINTING.md "perfcheck"):
//
//  1. Escape budget — every //ppep:hotpath root and its transitive
//     module callees (hotClosure, the walk the hotpath analyzer checks)
//     must be free of heap allocations *per the compiler's escape
//     analysis*. The compiler gives every make/new, slice and map
//     literal, &T{...}, interface conversion, variadic argument slice,
//     closure, and address-taken local an explicit verdict ("escapes to
//     heap", "moved to heap", "does not escape"), so those are decided
//     here, not guessed from syntax. Escape analysis does NOT report
//     append growth (the reallocation happens inside the runtime, with
//     no verdict at the call), nor heap-backed string results that do
//     not escape; those stay hotpath bans. The walk stops at the same
//     //ppep:allow hotpath call-line boundaries, so sanctioned amortized
//     slow paths stay out of scope.
//  2. Inline budget — every function annotated //ppep:inline must get
//     a positive "can inline" verdict; a negative verdict is reported
//     with the compiler's verbatim cost/reason.
//  3. Bounds-check budget — every statement annotated //ppep:nobc
//     (loops, in practice: the tick SoA sweeps, the histogram bucket
//     math) must contain zero residual IsInBounds/IsSliceInBounds
//     checks after the SSA prove pass.
//
// A transcript with zero diagnostics of a consumed class is reported
// as toolchain-format drift, not silently treated as a clean module.
func runPerfcheck(m *Module, cfg Config) []Finding {
	var fs []Finding
	d, err := m.perfDiagnostics(cfg)
	if err != nil {
		fs = append(fs, Finding{
			Pos:      m.modulePos(),
			Analyzer: "perfcheck",
			Message:  "diagnostics build failed: " + err.Error(),
		})
		return fs
	}

	fs = append(fs, m.perfDriftFindings(d)...)
	fs = append(fs, m.perfEscapeFindings(d)...)
	fs = append(fs, m.perfInlineFindings(d)...)
	fs = append(fs, m.perfBoundsFindings(d)...)
	return fs
}

// modulePos anchors module-level findings (drift, failed build) to the
// go.mod file so they render as real positions in every output mode.
func (m *Module) modulePos() token.Position {
	return token.Position{Filename: m.Dir + "/go.mod", Line: 1}
}

// perfDriftFindings fails loudly when a whole diagnostic class parsed
// to nothing: the compiler's -m / check_bce output format has no
// stability guarantee, and a silent format drift would turn every
// budget into a no-op that always passes.
func (m *Module) perfDriftFindings(d *PerfDiagnostics) []Finding {
	var fs []Finding
	drift := func(class, flag string) {
		fs = append(fs, Finding{
			Pos:      m.modulePos(),
			Analyzer: "perfcheck",
			Message: "no " + class + " diagnostics parsed from `go build -gcflags='" + perfGcflags +
				"'` (" + d.GoVersion + "): the " + flag +
				" output format may have drifted; update the parser in internal/lint/perfdiag.go",
		})
	}
	if d.NumInlineLines == 0 {
		drift("inlining", "-m")
	}
	if d.NumEscapeLines == 0 {
		drift("escape-analysis", "-m")
	}
	if d.NumBoundsLines == 0 {
		drift("bounds-check", "-d=ssa/check_bce")
	}
	return fs
}

// perfEscapeFindings maps the compiler's heap-allocation decisions
// onto the hot closure: any "escapes to heap" / "moved to heap" whose
// position falls inside a hot function's declaration is a finding.
// When the compiler inlines a sanctioned callee, it attributes the
// inlined body's allocations to the call site — so a diagnostic landing
// on an //ppep:allow hotpath call line is the sanctioned slow path seen
// through the inliner, and stays out of scope like the walk boundary.
func (m *Module) perfEscapeFindings(d *PerfDiagnostics) []Finding {
	var fs []Finding
	for _, h := range m.hotClosure() {
		fn := h.fn
		start := m.Fset.Position(fn.Decl.Pos())
		end := m.Fset.Position(fn.Decl.End())
		for _, diag := range d.Escapes[start.Filename] {
			if diag.Line < start.Line || diag.Line > end.Line {
				continue
			}
			pos := token.Position{Filename: diag.File, Line: diag.Line, Column: diag.Col}
			if m.hasAllow("hotpath", pos) {
				continue
			}
			if m.allowedAt("perfcheck", pos) {
				continue
			}
			fs = append(fs, Finding{
				Pos:      pos,
				Analyzer: "perfcheck",
				Message: "heap allocation on the hot path per escape analysis: " +
					diag.Msg + " (in " + trimModule(fn.Obj.FullName(), m.Path) + ")",
			})
		}
	}
	return fs
}

// perfInlineFindings checks every //ppep:inline function against the
// compiler's verdict at its declaration line. CanInline wins when both
// verdicts exist at one position (generic shape vs instantiations).
func (m *Module) perfInlineFindings(d *PerfDiagnostics) []Finding {
	var fs []Finding
	var marked []*FuncNode
	for _, fn := range m.Funcs {
		if fn.Inline {
			marked = append(marked, fn)
		}
	}
	sort.Slice(marked, func(i, j int) bool {
		return marked[i].Obj.FullName() < marked[j].Obj.FullName()
	})
	for _, fn := range marked {
		declPos := m.Fset.Position(fn.Decl.Pos())
		key := diagKey(declPos.Filename, declPos.Line)
		if _, ok := d.CanInline[key]; ok {
			continue
		}
		pos := declPos
		if m.allowedAt("perfcheck", pos) {
			continue
		}
		name := trimModule(fn.Obj.FullName(), m.Path)
		if neg, ok := d.CannotInline[key]; ok {
			fs = append(fs, Finding{
				Pos:      pos,
				Analyzer: "perfcheck",
				Message:  "//ppep:inline function is not inlined; compiler says: " + neg.Msg,
			})
			continue
		}
		fs = append(fs, Finding{
			Pos:      pos,
			Analyzer: "perfcheck",
			Message: "no inlining verdict for //ppep:inline function " + name +
				" (was its package excluded from the diagnostics build patterns, or did the -m format drift?)",
		})
	}
	return fs
}

// perfBoundsFindings reports every residual bounds check inside an
// //ppep:nobc statement's line range, quoting the compiler's check
// kind verbatim.
func (m *Module) perfBoundsFindings(d *PerfDiagnostics) []Finding {
	var fs []Finding
	for _, r := range m.nobcRanges {
		for _, diag := range d.Bounds[r.file] {
			if diag.Line < r.fromLine || diag.Line > r.toLine {
				continue
			}
			pos := token.Position{Filename: diag.File, Line: diag.Line, Column: diag.Col}
			if m.allowedAt("perfcheck", pos) {
				continue
			}
			fs = append(fs, Finding{
				Pos:      pos,
				Analyzer: "perfcheck",
				Message: "residual bounds check in //ppep:nobc range (" + r.what + "): compiler reports \"" +
					diag.Msg + "\"; restructure so the prove pass can eliminate it",
			})
		}
	}
	return fs
}
