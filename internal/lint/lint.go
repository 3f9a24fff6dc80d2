// Package lint implements ppeplint, the module's custom static-analysis
// suite. It is built only on the standard library (go/parser, go/ast,
// go/types, go/importer and the go command for export data) and enforces
// the properties the simulator's runtime tests (TestTickZeroAlloc, the
// golden fingerprints, the -race runs) can only spot-check:
//
//   - hotpath: functions annotated //ppep:hotpath — and everything they
//     transitively call inside the module — must not append, build
//     strings, call fmt, read the wall clock, take locks, or make calls
//     the walk cannot follow. This is the compile-time form of the
//     200 ms online-prediction budget (PAPER.md §1); every other heap
//     allocation is perfcheck's, decided by the compiler.
//   - determinism: the simulation packages must not use time.Now or the
//     globally-seeded math/rand, and must not iterate maps when the loop
//     body has order-dependent effects, so fixed seeds keep producing
//     bit-identical campaigns.
//   - errcheck: no silently dropped error returns; discarding via `_ =`
//     requires an adjacent justification comment.
//   - unitcheck: dimensional analysis over the internal/units types —
//     cross-unit conversions and unit-annihilating float64 casts must go
//     through named conversion helpers (docs/UNITS.md).
//   - perfcheck: the compiler's own diagnostics (-m -m escape analysis
//     and inlining verdicts, -d=ssa/check_bce residual bounds checks)
//     as a lintable contract: hot-path closures stay heap-allocation
//     free per the compiler, //ppep:inline functions stay inlined, and
//     //ppep:nobc loops keep zero residual bounds checks.
//
// Exceptions are declared in the source as
//
//	//ppep:allow <analyzer> <reason>
//
// which suppresses findings on the directive's line (trailing form), the
// following line (standalone form), or the whole function (doc-comment
// form). Unused suppressions are themselves findings, so stale
// exceptions cannot linger. See docs/LINTING.md.
package lint

import (
	"fmt"
	"go/token"
	"path"
	"slices"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding as "file:line: [analyzer] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Config selects analyzer scopes. The zero value gives determinism and
// unitcheck nothing to check, so only hotpath, errcheck, perfcheck (over
// ./...) and the directive checks report; DefaultConfig covers the full
// suite for this module.
type Config struct {
	// DeterminismPkgs is the set of import paths the determinism
	// analyzer covers.
	DeterminismPkgs map[string]bool
	// UnitsPkg is the import path of the physical-units package; empty
	// disables the unitcheck analyzer.
	UnitsPkg string
	// PerfPatterns are the package patterns perfcheck compiles for
	// diagnostics (go build -gcflags='-m -m -d=ssa/check_bce/debug=1');
	// empty means ./... — the whole module.
	PerfPatterns []string
}

// DefaultConfig returns the analyzer scope for this repository: the
// simulation and campaign packages are determinism-checked (including the
// sensor/stats/workload RNG users, which must stay on seeded *rand.Rand,
// and the worker pool they fan out on).
func DefaultConfig(modulePath string) Config {
	pkgs := map[string]bool{}
	for _, p := range []string{
		"internal/fxsim",
		"internal/fleet",
		"internal/experiments",
		"internal/powertruth",
		"internal/uarch",
		"internal/mem",
		"internal/sensor",
		"internal/stats",
		"internal/workload",
		"internal/fingerprint",
		"internal/tracecodec",
		"internal/simcache",
		"internal/pool",
	} {
		pkgs[path.Join(modulePath, p)] = true
	}
	return Config{
		DeterminismPkgs: pkgs,
		UnitsPkg:        path.Join(modulePath, "internal/units"),
	}
}

// AnalyzerNames lists every analyzer, in report order. "directive" covers
// the directive parser's own findings (malformed or unknown directives).
var AnalyzerNames = []string{
	"hotpath", "determinism", "errcheck", "unitcheck", "perfcheck",
	"directive",
}

// runOne dispatches a single analyzer by name. Callers validate the
// name against AnalyzerNames.
func (m *Module) runOne(name string, cfg Config) []Finding {
	switch name {
	case "hotpath":
		return runHotpath(m)
	case "determinism":
		return runDeterminism(m, cfg)
	case "errcheck":
		return runErrcheck(m)
	case "unitcheck":
		return runUnitcheck(m, cfg)
	case "perfcheck":
		return runPerfcheck(m, cfg)
	case "directive":
		return append([]Finding(nil), m.directiveFindings...)
	}
	return nil
}

// RunAnalyzers executes the named analyzers (all of AnalyzerNames for
// the full suite, a subset for ppeplint -analyzers) and returns the
// surviving findings sorted by position. Suppressed findings count
// toward Suppressed(); allow directives that suppressed nothing are
// reported as findings. The unused-suppression check covers only the
// named analyzers, so a subset run cannot flag allows owned by
// analyzers it did not run. An unknown name is an error, not a silent
// no-op.
func (m *Module) RunAnalyzers(cfg Config, names ...string) ([]Finding, error) {
	var fs []Finding
	var ran []string
	seen := map[string]bool{}
	for _, name := range names {
		if !slices.Contains(AnalyzerNames, name) {
			return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", name, strings.Join(AnalyzerNames, ", "))
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		fs = append(fs, m.runOne(name, cfg)...)
		if name != "directive" {
			ran = append(ran, name)
		}
	}
	fs = append(fs, m.unusedAllows(ran...)...)
	sortFindings(fs)
	return fs, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
