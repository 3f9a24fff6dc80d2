package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// allowDirective is one parsed //ppep:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	// fromLine..toLine is the suppression range: the directive's own
	// line and the next (trailing and standalone forms), or the whole
	// function when the directive sits in a doc comment.
	fromLine, toLine int
	used             bool
}

// nobcRange is one resolved //ppep:nobc directive: the source range of
// the statement (in practice a loop) that must carry zero residual
// bounds checks per the compiler's check_bce output.
type nobcRange struct {
	file             string
	fromLine, toLine int
	what             string // statement kind, for the finding message
}

// scanDirectives parses //ppep:hotpath, //ppep:inline, //ppep:nobc and
// //ppep:allow comments in one package, marking analysis roots,
// registering suppressions, and reporting malformed directives as
// findings.
func (m *Module) scanDirectives(pkg *Package) {
	for _, f := range pkg.Files {
		docOf := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				docOf[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			fd := docOf[cg]
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, "//ppep:") {
					continue
				}
				pos := m.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, "//ppep:")
				switch {
				case rest == "hotpath" || strings.HasPrefix(rest, "hotpath "):
					m.markHotpath(pkg, fd, pos)
				case rest == "inline" || strings.HasPrefix(rest, "inline "):
					m.markInline(pkg, fd, pos)
				case rest == "nobc" || strings.HasPrefix(rest, "nobc "):
					m.addNobc(f, fd, c, pos)
				case rest == "allow" || strings.HasPrefix(rest, "allow "):
					m.addAllow(fd, pos, strings.TrimPrefix(rest, "allow"))
				default:
					m.directiveFindings = append(m.directiveFindings, Finding{
						Pos: pos, Analyzer: "directive",
						Message: fmt.Sprintf("unknown directive %q (known: //ppep:hotpath, //ppep:inline, //ppep:nobc, //ppep:allow)", text),
					})
				}
			}
		}
	}
}

func (m *Module) markHotpath(pkg *Package, fd *ast.FuncDecl, pos token.Position) {
	if fd == nil {
		m.directiveFindings = append(m.directiveFindings, Finding{
			Pos: pos, Analyzer: "directive",
			Message: "//ppep:hotpath must appear in a function's doc comment",
		})
		return
	}
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		if node := m.Funcs[obj.FullName()]; node != nil {
			node.Hot = true
		}
	}
}

// markInline flags a //ppep:inline root: the perfcheck analyzer
// requires a positive compiler inlining verdict for the function.
func (m *Module) markInline(pkg *Package, fd *ast.FuncDecl, pos token.Position) {
	if fd == nil {
		m.directiveFindings = append(m.directiveFindings, Finding{
			Pos: pos, Analyzer: "directive",
			Message: "//ppep:inline must appear in a function's doc comment",
		})
		return
	}
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		if node := m.Funcs[obj.FullName()]; node != nil {
			node.Inline = true
		}
	}
}

// addNobc resolves a //ppep:nobc directive to the statement it
// precedes — the standalone comment form, immediately above a loop —
// and records that statement's line range for perfcheck's residual
// bounds-check budget.
func (m *Module) addNobc(f *ast.File, fd *ast.FuncDecl, c *ast.Comment, pos token.Position) {
	if fd != nil {
		m.directiveFindings = append(m.directiveFindings, Finding{
			Pos: pos, Analyzer: "directive",
			Message: "//ppep:nobc marks a statement, not a function; place it on the line above the loop",
		})
		return
	}
	// The covered statement is the smallest-position statement that
	// starts after the directive, within a two-line window (gofmt may
	// interpose an empty // separator).
	var best ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if _, isBlock := s.(*ast.BlockStmt); isBlock {
			return true // blocks wrap their first statement; keep the statement
		}
		if s.Pos() > c.End() && (best == nil || s.Pos() < best.Pos()) {
			best = s
		}
		return true
	})
	if best == nil || m.Fset.Position(best.Pos()).Line > pos.Line+2 {
		m.directiveFindings = append(m.directiveFindings, Finding{
			Pos: pos, Analyzer: "directive",
			Message: "//ppep:nobc must immediately precede the statement it covers",
		})
		return
	}
	what := "statement"
	switch best.(type) {
	case *ast.ForStmt:
		what = "for loop"
	case *ast.RangeStmt:
		what = "range loop"
	}
	m.nobcRanges = append(m.nobcRanges, nobcRange{
		file:     pos.Filename,
		fromLine: m.Fset.Position(best.Pos()).Line,
		toLine:   m.Fset.Position(best.End()).Line,
		what:     what,
	})
}

func (m *Module) addAllow(fd *ast.FuncDecl, pos token.Position, rest string) {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		m.directiveFindings = append(m.directiveFindings, Finding{
			Pos: pos, Analyzer: "directive",
			Message: "//ppep:allow needs an analyzer name and a reason: //ppep:allow <analyzer> <reason>",
		})
		return
	}
	if !slices.Contains(AnalyzerNames, fields[0]) {
		m.directiveFindings = append(m.directiveFindings, Finding{
			Pos: pos, Analyzer: "directive",
			Message: fmt.Sprintf("//ppep:allow names unknown analyzer %q", fields[0]),
		})
		return
	}
	a := &allowDirective{
		analyzer: fields[0],
		reason:   strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
		pos:      pos,
		fromLine: pos.Line,
		toLine:   pos.Line + 1,
	}
	if fd != nil {
		a.fromLine = m.Fset.Position(fd.Pos()).Line
		a.toLine = m.Fset.Position(fd.End()).Line
	}
	m.allows[pos.Filename] = append(m.allows[pos.Filename], a)
}

// allowedAt reports whether a finding by the analyzer at pos is
// suppressed, marking the matching directive as used.
func (m *Module) allowedAt(analyzer string, pos token.Position) bool {
	for _, a := range m.allows[pos.Filename] {
		if a.analyzer == analyzer && pos.Line >= a.fromLine && pos.Line <= a.toLine {
			a.used = true
			m.suppressed++
			m.suppressedBy[analyzer]++
			return true
		}
	}
	return false
}

// hasAllow reports whether a directive covers the position WITHOUT
// marking it used or counting a suppression — for walk-boundary
// decisions (the hot-closure walk perfcheck shares with hotpath) that
// must not perturb the suppression census the owning analyzer
// maintains.
func (m *Module) hasAllow(analyzer string, pos token.Position) bool {
	for _, a := range m.allows[pos.Filename] {
		if a.analyzer == analyzer && pos.Line >= a.fromLine && pos.Line <= a.toLine {
			return true
		}
	}
	return false
}

// emit appends a finding unless an //ppep:allow directive covers it.
func (m *Module) emit(fs *[]Finding, analyzer string, pos token.Pos, format string, args ...any) {
	p := m.Fset.Position(pos)
	if m.allowedAt(analyzer, p) {
		return
	}
	*fs = append(*fs, Finding{Pos: p, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)})
}

// unusedAllows reports //ppep:allow directives for the given analyzers
// that suppressed nothing, so stale exceptions are cleaned up rather
// than silently accumulating.
func (m *Module) unusedAllows(analyzers ...string) []Finding {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a] = true
	}
	var fs []Finding
	for _, as := range m.allows {
		for _, a := range as {
			if !a.used && ran[a.analyzer] {
				fs = append(fs, Finding{
					Pos: a.pos, Analyzer: a.analyzer,
					Message: "unused //ppep:allow suppression (no finding here; delete it)",
				})
			}
		}
	}
	return fs
}
