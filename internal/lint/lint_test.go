package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture module under testdata/src has its own go.mod so the parent
// module's build, vet, and test sweeps ignore it; it is loaded here
// exactly as ppeplint loads the real module. Expectations live in the
// fixtures as `want "regex"` comments: a trailing comment anchors to its
// own line, a standalone comment line to the line below. Several quoted
// regexes on one line expect several findings there.

var (
	fixtureOnce sync.Once
	fixtureMod  *Module
	fixtureErr  error
)

func fixtureModule(t *testing.T) *Module {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureMod, fixtureErr = Load(filepath.Join("testdata", "src"))
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture module: %v", fixtureErr)
	}
	return fixtureMod
}

func fixtureConfig() Config {
	return Config{
		DeterminismPkgs: map[string]bool{"fixture/determinism": true},
		UnitsPkg:        "fixture/units",
	}
}

type wantEntry struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRE matches one double-quoted regex, allowing \" escapes inside.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants extracts want expectations from every fixture file in dir.
func parseWants(t *testing.T, dir string) []*wantEntry {
	t.Helper()
	var wants []*wantEntry
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			idx := strings.Index(line, "want \"")
			if idx < 0 {
				continue
			}
			target := i + 1 // 1-based line of the comment itself
			if strings.HasPrefix(strings.TrimSpace(line), "//") {
				// Standalone comment: the expectation is the next
				// substantive line (gofmt may interpose an empty //
				// separator before a directive).
				for target < len(lines) {
					next := strings.TrimSpace(lines[target])
					if next != "" && next != "//" {
						break
					}
					target++
				}
				target++
			}
			for _, qm := range wantRE.FindAllStringSubmatch(line[idx:], -1) {
				raw := strings.NewReplacer(`\"`, `"`, `\\`, `\`).Replace(qm[1])
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, i+1, raw, err)
				}
				wants = append(wants, &wantEntry{file: abs, line: target, re: re, raw: raw})
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer and verifies its findings inside the
// given fixture package against that package's want comments, both ways:
// every want must be hit and every finding must be wanted.
func checkFixture(t *testing.T, analyzer, pkg string) {
	t.Helper()
	m := fixtureModule(t)
	dir := filepath.Join("testdata", "src", pkg)
	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, dir)

	all, err := m.RunAnalyzers(fixtureConfig(), analyzer)
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	for _, f := range all {
		if filepath.Dir(f.Pos.Filename) == absDir {
			findings = append(findings, f)
		}
	}

	for _, f := range findings {
		hit := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

func TestHotpathFixtures(t *testing.T)     { checkFixture(t, "hotpath", "hotpath") }
func TestDeterminismFixtures(t *testing.T) { checkFixture(t, "determinism", "determinism") }
func TestErrcheckFixtures(t *testing.T)    { checkFixture(t, "errcheck", "errcheck") }
func TestDirectiveFixtures(t *testing.T)   { checkFixture(t, "directive", "directives") }
func TestUnitcheckFixtures(t *testing.T)   { checkFixture(t, "unitcheck", "unitcheck") }

// TestPerfcheckFixtures compiles the fixture module with the
// diagnostics flags and checks the three budgets against seeded
// regressions: an address-of-local escape on a hot root, an over-budget
// //ppep:inline function, and a //ppep:nobc loop with a free bound.
func TestPerfcheckFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the fixture module")
	}
	checkFixture(t, "perfcheck", "perfcheck")
}

// TestRunAnalyzersSubset pins the -analyzers plumbing: a subset run
// executes only the named analyzers, scopes the unused-suppression
// check to them, and rejects unknown names.
func TestRunAnalyzersSubset(t *testing.T) {
	m := fixtureModule(t)
	fs, err := m.RunAnalyzers(fixtureConfig(), "errcheck")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f.Analyzer != "errcheck" {
			t.Errorf("subset run of errcheck produced a %s finding: %s", f.Analyzer, f)
		}
	}
	if len(fs) == 0 {
		t.Error("subset run of errcheck found nothing; the fixture guarantees findings")
	}
	if _, err := m.RunAnalyzers(fixtureConfig(), "errcheck", "nosuch"); err == nil {
		t.Error("RunAnalyzers accepted unknown analyzer name")
	}
}

// TestFindingString pins the report format the Makefile and CI grep for.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "hotpath", Message: "append allocates"}
	f.Pos.Filename = "chip.go"
	f.Pos.Line = 42
	if got, want := f.String(), "chip.go:42: [hotpath] append allocates"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestRepoClean runs the full suite over the real module: the tree must
// stay free of unsuppressed findings, which is exactly what `make lint`
// enforces. A finding here means either new code broke an invariant or
// it needs a visible //ppep:allow with a reason.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings, err := m.RunAnalyzers(DefaultConfig(m.Path), AnalyzerNames...)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Log("fix the findings above or add //ppep:allow <analyzer> <reason> at the site")
	}
	// The tree's sanctioned exceptions stay visible here: update this
	// count deliberately when adding or removing an //ppep:allow.
	if got := m.Suppressed(); got != 2 {
		t.Errorf("suppressed findings = %d, want 2 (did an //ppep:allow come or go?)", got)
	}
	// Per-analyzer: the only exceptions are the two hotpath walk
	// boundaries — the per-phase EPI-scale memo refresh in uarch and the
	// trace encoder's amortized buffer growth. determinism, errcheck,
	// unitcheck and perfcheck sit at zero: unitcheck's conversion and
	// arithmetic rules need no exceptions, and perfcheck rolled out
	// clean (zero compiler-verified hot-path escapes, every
	// //ppep:inline site inlined, zero residual bounds checks in
	// //ppep:nobc ranges) — new exceptions need a reason the compiler
	// can't argue with.
	by := m.SuppressedBy()
	for _, name := range AnalyzerNames {
		want := 0
		if name == "hotpath" {
			want = 2
		}
		if by[name] != want {
			t.Errorf("suppressed by %s = %d, want %d (census: hotpath 2, every other analyzer 0)", name, by[name], want)
		}
	}
}

// TestHotRootsAnnotated pins the annotation plumbing: the tick-path
// entry points must carry //ppep:hotpath so the analyzer actually covers
// the paths the 200 ms budget depends on.
func TestHotRootsAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, name := range []string{
		"(*ppep/internal/fxsim.Chip).TickN",
		"(*ppep/internal/uarch.Core).Step",
		"(*ppep/internal/uarch.Core).Reset",
		"ppep/internal/mem.LeadingLoadNSPerInst",
		"(*ppep/internal/tracecodec.Encoder).Encode",
	} {
		fn := m.Funcs[name]
		if fn == nil {
			t.Errorf("%s: not found in the function index", name)
			continue
		}
		if !fn.Hot {
			t.Errorf("%s: missing //ppep:hotpath annotation", name)
		}
	}
}

func ExampleFinding_String() {
	f := Finding{Analyzer: "determinism", Message: "map iteration order is random"}
	f.Pos.Filename = "campaign.go"
	f.Pos.Line = 7
	fmt.Println(f)
	// Output: campaign.go:7: [determinism] map iteration order is random
}
