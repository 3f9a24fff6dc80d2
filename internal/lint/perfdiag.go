package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// perfcheck treats the Go compiler as the oracle: `go build` with
//
//	-gcflags='-m -m -d=ssa/check_bce/debug=1'
//
// prints, per position, every escape-analysis decision, every inlining
// verdict (with cost and reason), and every bounds check the SSA
// backend could not eliminate. This file runs that build, parses the
// position-tagged diagnostics into PerfDiagnostics. A rebuild of
// unchanged packages replays the transcript from Go's own build cache.

// perfGcflags is the exact flag set perfcheck compiles with. It is a
// package-level constant so the golden-transcript tests and the docs
// quote the same invocation.
const perfGcflags = "-m -m -d=ssa/check_bce/debug=1"

// PerfDiagKind classifies one parsed compiler diagnostic.
type PerfDiagKind int

const (
	// PerfEscape is a heap allocation decision: "<expr> escapes to
	// heap" or "moved to heap: <var>".
	PerfEscape PerfDiagKind = iota
	// PerfCanInline is a positive inlining verdict, with the cost.
	PerfCanInline
	// PerfCannotInline is a negative inlining verdict, with the
	// compiler's reason.
	PerfCannotInline
	// PerfBoundsCheck is a residual bounds check ("Found IsInBounds" /
	// "Found IsSliceInBounds") the SSA prove pass could not eliminate.
	PerfBoundsCheck
)

// PerfDiag is one parsed compiler diagnostic. File is absolute, Msg is
// the verbatim compiler message after the position prefix.
type PerfDiag struct {
	Kind PerfDiagKind
	File string
	Line int
	Col  int
	Msg  string
	// Func is the function name the compiler printed for inlining
	// verdicts ("(*Histogram).Record", "queryValue", ...).
	Func string
	// Cost is the inlining cost for PerfCanInline verdicts.
	Cost int
}

// PerfDiagnostics is the parsed output of one diagnostics build.
type PerfDiagnostics struct {
	// GoVersion is runtime.Version() of the toolchain that produced
	// the transcript (informational; quoted in drift findings).
	GoVersion string
	// Escapes and Bounds index allocation and bounds-check diagnostics
	// by absolute file path, each slice sorted by line.
	Escapes map[string][]PerfDiag
	Bounds  map[string][]PerfDiag
	// CanInline and CannotInline index verdicts by "file:line" of the
	// func declaration. A position can carry both (generic shapes vs
	// instantiations); CanInline wins.
	CanInline    map[string]PerfDiag
	CannotInline map[string]PerfDiag
	// Evidence counters for toolchain-drift detection: a transcript
	// with zero parsed lines of a class means the format moved, not
	// that the module is clean.
	NumEscapeLines int // escapes + "does not escape" + "leaking param"
	NumInlineLines int // can/cannot inline + "inlining call to"
	NumBoundsLines int
}

// diagKey renders the "file:line" index key for inlining verdicts.
func diagKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// diagLine matches one position-tagged compiler line. Continuation
// lines of -m -m escape traces ("flow:", "from ...") carry the same
// prefix but indent the message; the parser skips those.
var diagLine = regexp.MustCompile(`^(.+?):(\d+):(\d+): (.*)$`)

// canInlineRE captures the function name and cost from a positive
// verdict: `can inline F with cost N as: ...` (the "with cost" clause
// needs -m -m; plain -m omits it, so cost stays zero).
var canInlineRE = regexp.MustCompile(`^can inline (.+?)(?: with cost (\d+) as: .*)?$`)

// cannotInlineRE captures the name and reason from a negative verdict:
// `cannot inline F: function too complex: cost 213 exceeds budget 80`.
var cannotInlineRE = regexp.MustCompile(`^cannot inline (.+?): (.+)$`)

// ParsePerfTranscript parses a raw `go build -gcflags='-m -m
// -d=ssa/check_bce/debug=1'` transcript. Relative file positions are
// resolved against dir. Unknown lines are skipped: the compiler prints
// many diagnostic shapes and perfcheck consumes exactly three classes;
// the evidence counters let callers detect when a class vanished
// wholesale (format drift) rather than thinned out.
func ParsePerfTranscript(transcript []byte, dir string) *PerfDiagnostics {
	d := &PerfDiagnostics{
		GoVersion:    runtime.Version(),
		Escapes:      map[string][]PerfDiag{},
		Bounds:       map[string][]PerfDiag{},
		CanInline:    map[string]PerfDiag{},
		CannotInline: map[string]PerfDiag{},
	}
	// -m -m prints one escape decision several times (once with its
	// flow trace, once in the summary pass, again per inlined copy);
	// collapse exact duplicates so a single decision is one diagnostic.
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(transcript))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue // package headers and blanks
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file, msg := m[1], m[4]
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			continue // -m -m flow continuation ("  flow:", "    from ...")
		}
		if strings.HasPrefix(file, "<") {
			continue // <autogenerated> wrappers have no source to lint
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		lineNo, _ := strconv.Atoi(m[2]) // diagLine guarantees digits
		col, _ := strconv.Atoi(m[3])    // diagLine guarantees digits
		pd := PerfDiag{File: file, Line: lineNo, Col: col, Msg: msg}

		switch {
		case strings.HasPrefix(msg, "moved to heap: "),
			strings.HasSuffix(msg, " escapes to heap"),
			strings.HasSuffix(msg, " escapes to heap:"):
			d.NumEscapeLines++
			pd.Kind = PerfEscape
			pd.Msg = strings.TrimSuffix(msg, ":")
			if key := "e\x00" + file + "\x00" + m[2] + "\x00" + m[3] + "\x00" + pd.Msg; !seen[key] {
				seen[key] = true
				d.Escapes[file] = append(d.Escapes[file], pd)
			}
		case strings.HasSuffix(msg, " does not escape"),
			strings.HasPrefix(msg, "leaking param"):
			d.NumEscapeLines++ // drift evidence only
		case strings.HasPrefix(msg, "can inline "):
			d.NumInlineLines++
			cm := canInlineRE.FindStringSubmatch(msg)
			if cm == nil {
				continue
			}
			pd.Kind = PerfCanInline
			pd.Func = cm[1]
			if cm[2] != "" {
				pd.Cost, _ = strconv.Atoi(cm[2]) // canInlineRE guarantees digits
			}
			// Strip the (potentially huge) "as: ..." body; the verdict
			// and cost are what budgets quote.
			pd.Msg = fmt.Sprintf("can inline %s with cost %d", pd.Func, pd.Cost)
			d.CanInline[diagKey(file, lineNo)] = pd
		case strings.HasPrefix(msg, "cannot inline "):
			d.NumInlineLines++
			cm := cannotInlineRE.FindStringSubmatch(msg)
			if cm == nil {
				continue
			}
			pd.Kind = PerfCannotInline
			pd.Func = cm[1]
			d.CannotInline[diagKey(file, lineNo)] = pd
		case strings.HasPrefix(msg, "inlining call to "):
			d.NumInlineLines++ // drift evidence only
		case msg == "Found IsInBounds", msg == "Found IsSliceInBounds":
			d.NumBoundsLines++
			pd.Kind = PerfBoundsCheck
			if key := "b\x00" + file + "\x00" + m[2] + "\x00" + m[3] + "\x00" + msg; !seen[key] {
				seen[key] = true
				d.Bounds[file] = append(d.Bounds[file], pd)
			}
		}
	}
	// Stable, so diagnostics sharing a position (the escapes/moved pair)
	// keep transcript order.
	for _, byFile := range []map[string][]PerfDiag{d.Escapes, d.Bounds} {
		for _, ds := range byFile {
			sort.SliceStable(ds, func(i, j int) bool {
				if ds[i].Line != ds[j].Line {
					return ds[i].Line < ds[j].Line
				}
				return ds[i].Col < ds[j].Col
			})
		}
	}
	return d
}

// runPerfBuild shells out to the diagnostics build and returns the
// combined transcript. The -gcflags set applies to the named patterns
// only (not dependencies), which is exactly the lintable surface.
func runPerfBuild(dir string, patterns []string) ([]byte, error) {
	args := append([]string{"build", "-gcflags=" + perfGcflags}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return out, nil
}

// perfDiagnostics runs the diagnostics build for this module, memoized
// per Module so a run pays at most one compile.
func (m *Module) perfDiagnostics(cfg Config) (*PerfDiagnostics, error) {
	m.perfOnce.Do(func() {
		patterns := cfg.PerfPatterns
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		out, err := runPerfBuild(m.Dir, patterns)
		if err != nil {
			m.perfErr = err
			return
		}
		m.perfDiags = ParsePerfTranscript(out, m.Dir)
	})
	return m.perfDiags, m.perfErr
}
