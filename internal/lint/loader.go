package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// FuncNode is one module function with source, used to walk the hot-path
// call graph across packages.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
	// Hot marks a //ppep:hotpath root.
	Hot bool
	// Inline marks a //ppep:inline root: perfcheck requires a positive
	// compiler inlining verdict at the declaration.
	Inline bool
}

// Module is the loaded module: every package matched by the load
// patterns, a cross-package function index, and the parsed directives.
type Module struct {
	Path     string // module path (go.mod)
	Dir      string // module root directory
	Fset     *token.FileSet
	Packages []*Package
	// Funcs indexes every module function declaration by
	// (*types.Func).FullName, which is stable between source-checked and
	// export-data views of a package.
	Funcs map[string]*FuncNode

	allows            map[string][]*allowDirective // by filename
	directiveFindings []Finding
	suppressed        int
	suppressedBy      map[string]int

	// nobcRanges are the resolved //ppep:nobc statement ranges the
	// perfcheck analyzer holds to zero residual bounds checks.
	nobcRanges []nobcRange

	// perfOnce memoizes the perfcheck diagnostics build: Run and
	// RunAnalyzer pay for at most one compile per loaded Module.
	perfOnce  sync.Once
	perfDiags *PerfDiagnostics
	perfErr   error
}

// Suppressed reports how many findings //ppep:allow directives absorbed.
func (m *Module) Suppressed() int { return m.suppressed }

// SuppressedBy reports the absorbed-finding count per analyzer, so the
// repo-clean test can pin the suppression census analyzer by analyzer.
func (m *Module) SuppressedBy() map[string]int {
	out := make(map[string]int, len(m.suppressedBy))
	for k, v := range m.suppressedBy {
		out[k] = v
	}
	return out
}

// inModule reports whether an import path belongs to this module.
func (m *Module) inModule(importPath string) bool {
	return importPath == m.Path || strings.HasPrefix(importPath, m.Path+"/")
}

// listPkg is the subset of `go list -json` fields the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// Load parses and type-checks every package matched by the patterns
// (default ./...) under dir. It shells out to `go list -export -deps` so
// imports — standard library and module-internal alike — resolve from
// compiler export data; the matched packages themselves are re-checked
// from source to get ASTs with full type information.
func Load(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = absDir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}

	var metas []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		metas = append(metas, p)
	}

	exports := map[string]string{}
	var targets []listPkg
	for _, p := range metas {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.DepOnly || p.Module == nil {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue // test-only packages (e.g. the module root)
		}
		targets = append(targets, p)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v under %s", patterns, absDir)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	m := &Module{
		Path:         targets[0].Module.Path,
		Dir:          targets[0].Module.Dir,
		Fset:         token.NewFileSet(),
		Funcs:        map[string]*FuncNode{},
		allows:       map[string][]*allowDirective{},
		suppressedBy: map[string]int{},
	}

	lookup := func(importPath string) (io.ReadCloser, error) {
		f, ok := exports[importPath]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", importPath)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(m.Fset, "gc", lookup)

	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(m.Fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, m.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
		}
		pkg := &Package{Path: t.ImportPath, Dir: t.Dir, Files: files, Pkg: tpkg, Info: info}
		m.Packages = append(m.Packages, pkg)
	}

	for _, pkg := range m.Packages {
		m.indexFuncs(pkg)
	}
	for _, pkg := range m.Packages {
		m.scanDirectives(pkg)
	}
	return m, nil
}

// indexFuncs records every function declaration under its FullName.
func (m *Module) indexFuncs(pkg *Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			m.Funcs[obj.FullName()] = &FuncNode{Pkg: pkg, Decl: fd, Obj: obj}
		}
	}
}
