// Command ppeplint runs the module's custom static-analysis suite
// (internal/lint): hotpath allocation-freedom, simulation determinism,
// dropped-error checks, unitcheck dimensional analysis, and perfcheck,
// which compiles the module with -gcflags='-m -m
// -d=ssa/check_bce/debug=1' and holds the hot paths to the compiler's
// own verdicts (escape analysis, inlining, residual bounds
// checks). Copied locks and atomics are go vet's (copylocks); data
// races and goroutine joins are the -race tests'. It is stdlib-only and
// exits non-zero on any unsuppressed finding, so `make lint` / `make
// ci` can gate merges on it. See docs/LINTING.md and docs/UNITS.md.
//
// Usage:
//
//	ppeplint [-C dir] [-json] [-analyzers a,b|list] [patterns...]
//
// Patterns default to ./... relative to -C (default: current directory).
// -json replaces the plain `file:line: [analyzer] message` lines with a
// JSON array of finding objects on stdout (machine-readable; the CI
// problem matcher consumes the plain format, tooling the JSON one).
// -analyzers runs only the named comma-separated subset (faster local
// iteration; lets CI shard lint from tests); `-analyzers list` prints
// the registry and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ppep/internal/lint"
)

// jsonFinding is the -json output record for one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	dir := flag.String("C", ".", "directory to run in (module root or below)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of plain lines")
	analyzers := flag.String("analyzers", "",
		"comma-separated analyzers to run (default: all); 'list' prints the registry and exits")
	flag.Parse()

	if *analyzers == "list" {
		for _, name := range lint.AnalyzerNames {
			fmt.Println(name)
		}
		return
	}
	runNames := lint.AnalyzerNames
	if *analyzers != "" {
		runNames = strings.Split(*analyzers, ",")
		for i, name := range runNames {
			runNames[i] = strings.TrimSpace(name)
		}
	}

	start := time.Now()
	m, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppeplint:", err)
		os.Exit(2)
	}
	findings, err := m.RunAnalyzers(lint.DefaultConfig(m.Path), runNames...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppeplint:", err)
		os.Exit(2)
	}
	wall := time.Since(start)

	cwd, _ := os.Getwd() // best-effort; empty cwd falls back to absolute paths
	relName := func(name string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
				return rel
			}
		}
		return name
	}

	if *jsonOut {
		recs := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			recs = append(recs, jsonFinding{
				File:     relName(f.Pos.Filename),
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		b, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppeplint:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: [%s] %s\n", relName(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ppeplint: %d finding(s) in %d package(s)\n", len(findings), len(m.Packages))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ppeplint: ok (%d packages, %d suppression(s), %dms)\n",
		len(m.Packages), m.Suppressed(), wall.Milliseconds())
}
