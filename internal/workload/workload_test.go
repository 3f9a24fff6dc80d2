package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func allBenchmarks() []*Benchmark {
	var out []*Benchmark
	out = append(out, SPECBenchmarks()...)
	out = append(out, PARSECBenchmarks()...)
	out = append(out, NPBBenchmarks()...)
	out = append(out, BenchA())
	return out
}

func TestSuiteSizes(t *testing.T) {
	if n := len(SPECBenchmarks()); n != 29 {
		t.Errorf("SPEC programs = %d, want 29", n)
	}
	if n := len(PARSECBenchmarks()); n != 13 {
		t.Errorf("PARSEC programs = %d, want 13", n)
	}
	if n := len(NPBBenchmarks()); n != 10 {
		t.Errorf("NPB programs = %d, want 10", n)
	}
}

func TestPaperCombinationCounts(t *testing.T) {
	// Section II / IV-B1: 61 SPEC (29+15+10+7), 51 PARSEC, 40 NPB = 152.
	if n := len(SPECRuns()); n != 61 {
		t.Errorf("SPEC runs = %d, want 61", n)
	}
	if n := len(PARSECRuns()); n != 51 {
		t.Errorf("PARSEC runs = %d, want 51", n)
	}
	if n := len(NPBRuns()); n != 40 {
		t.Errorf("NPB runs = %d, want 40", n)
	}
	if n := len(AllRuns()); n != 152 {
		t.Errorf("total runs = %d, want 152", n)
	}
}

func TestSPECComboSizes(t *testing.T) {
	var single, double, triple, quad int
	for _, r := range SPECRuns() {
		switch len(r.Members) {
		case 1:
			single++
		case 2:
			double++
		case 3:
			triple++
		case 4:
			quad++
		default:
			t.Errorf("run %s has %d members", r.Name, len(r.Members))
		}
	}
	if single != 29 || double != 15 || triple != 10 || quad != 7 {
		t.Errorf("combo split %d/%d/%d/%d, want 29/15/10/7", single, double, triple, quad)
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for _, b := range allBenchmarks() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s/%s: %v", b.Suite, b.Name, err)
		}
	}
}

func TestProfilesDeterministic(t *testing.T) {
	// Rebuilding from the same specs must reproduce identical profiles.
	a := build(profileSpec{name: "433.milc", suite: "SPEC", class: MemBound, fp: true, phases: 2, gInst: 75, noise: 0.05, tune: tuneMilc})
	b := build(profileSpec{name: "433.milc", suite: "SPEC", class: MemBound, fp: true, phases: 2, gInst: 75, noise: 0.05, tune: tuneMilc})
	if len(a.Phases) != len(b.Phases) {
		t.Fatal("phase counts differ")
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			t.Errorf("phase %d differs between rebuilds", i)
		}
	}
	if a.FreqSens != b.FreqSens {
		t.Error("FreqSens differs between rebuilds")
	}
}

func TestFeaturedProfiles(t *testing.T) {
	milc := SPECByNumber("433")
	sjeng := SPECByNumber("458")
	mcf := SPECByNumber("429")
	swap := PARSECByName("swaptions")

	// milc must be much more memory-bound than sjeng.
	if milc.Phases[0].PerInst.L2Miss <= 10*sjeng.Phases[0].PerInst.L2Miss {
		t.Errorf("milc L2Miss %v not ≫ sjeng %v",
			milc.Phases[0].PerInst.L2Miss, sjeng.Phases[0].PerInst.L2Miss)
	}
	// mcf is the most memory-bound SPEC program.
	for _, b := range SPECBenchmarks() {
		if b == mcf {
			continue
		}
		if b.Phases[0].PerInst.L2Miss > mcf.Phases[0].PerInst.L2Miss {
			t.Errorf("%s more memory-bound than mcf", b.Name)
		}
	}
	// swaptions is cache-resident FP compute.
	if swap.Phases[0].PerInst.L2Miss > 0.001 {
		t.Errorf("swaptions L2Miss %v too high", swap.Phases[0].PerInst.L2Miss)
	}
	if swap.Phases[0].PerInst.FPU < 0.5 {
		t.Errorf("swaptions FPU %v too low", swap.Phases[0].PerInst.FPU)
	}
}

func TestBenchAIsL1Resident(t *testing.T) {
	a := BenchA()
	p := a.Phases[0]
	if p.PerInst.L2Miss != 0 {
		t.Error("bench_A must have no NB accesses")
	}
	if p.PerInst.L2Req > 0.01 {
		t.Error("bench_A must be L1-resident")
	}
	if p.Noise > 0.01 {
		t.Error("bench_A must be steady")
	}
	if len(a.Phases) != 1 {
		t.Error("bench_A must have a single phase")
	}
}

func TestPhaseAt(t *testing.T) {
	b := &Benchmark{
		Name:         "x",
		Instructions: 100,
		Phases: []Phase{
			{Name: "a", Weight: 0.25, BaseCPI: 0.5, PerInst: Rates{Uops: 1.2}, MLP: 1},
			{Name: "b", Weight: 0.75, BaseCPI: 0.5, PerInst: Rates{Uops: 1.2}, MLP: 1},
		},
	}
	if got := b.PhaseAt(0).Name; got != "a" {
		t.Errorf("PhaseAt(0) = %s", got)
	}
	if got := b.PhaseAt(24).Name; got != "a" {
		t.Errorf("PhaseAt(24) = %s", got)
	}
	if got := b.PhaseAt(26).Name; got != "b" {
		t.Errorf("PhaseAt(26) = %s", got)
	}
	if got := b.PhaseAt(99).Name; got != "b" {
		t.Errorf("PhaseAt(99) = %s", got)
	}
	// Past the end and negative inputs are clamped.
	if got := b.PhaseAt(1e9).Name; got != "b" {
		t.Errorf("PhaseAt(1e9) = %s", got)
	}
	if got := b.PhaseAt(-5).Name; got != "a" {
		t.Errorf("PhaseAt(-5) = %s", got)
	}
}

func TestPhaseAtLoops(t *testing.T) {
	b := &Benchmark{
		Name:         "loopy",
		Instructions: 100,
		Loops:        2,
		Phases: []Phase{
			{Name: "a", Weight: 0.5, BaseCPI: 0.5, PerInst: Rates{Uops: 1.2}, MLP: 1},
			{Name: "b", Weight: 0.5, BaseCPI: 0.5, PerInst: Rates{Uops: 1.2}, MLP: 1},
		},
	}
	// Loop length 50: a in [0,25), b in [25,50), a again in [50,75)...
	for _, tc := range []struct {
		done float64
		want string
	}{{0, "a"}, {20, "a"}, {30, "b"}, {49, "b"}, {55, "a"}, {80, "b"}} {
		if got := b.PhaseAt(tc.done).Name; got != tc.want {
			t.Errorf("PhaseAt(%v) = %s, want %s", tc.done, got, tc.want)
		}
	}
}

func TestPhaseAtAlwaysReturnsPhase(t *testing.T) {
	benches := allBenchmarks()
	f := func(frac float64, pick uint8) bool {
		b := benches[int(pick)%len(benches)]
		if frac < 0 {
			frac = -frac
		}
		p := b.PhaseAt(frac * b.Instructions * 1.5)
		return p != nil && p.Weight > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	good := func() *Benchmark {
		return &Benchmark{
			Name:         "g",
			Instructions: 100,
			Phases: []Phase{{
				Name: "p", Weight: 1, BaseCPI: 0.5, MLP: 1,
				PerInst: Rates{Uops: 1.2, Branch: 0.1, Mispred: 0.01, L2Req: 0.02, L2Miss: 0.01},
			}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline profile invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Benchmark)
	}{
		{"empty name", func(b *Benchmark) { b.Name = "" }},
		{"no instructions", func(b *Benchmark) { b.Instructions = 0 }},
		{"no phases", func(b *Benchmark) { b.Phases = nil }},
		{"zero weight", func(b *Benchmark) { b.Phases[0].Weight = 0 }},
		{"weights not 1", func(b *Benchmark) { b.Phases[0].Weight = 0.5 }},
		{"CPI too low", func(b *Benchmark) { b.Phases[0].BaseCPI = 0.1 }},
		{"MLP below 1", func(b *Benchmark) { b.Phases[0].MLP = 0.5 }},
		{"bad L3 ratio", func(b *Benchmark) { b.Phases[0].L3MissRatio = 1.5 }},
		{"uops below 1", func(b *Benchmark) { b.Phases[0].PerInst.Uops = 0.5 }},
		{"mispred > branch", func(b *Benchmark) { b.Phases[0].PerInst.Mispred = 0.5 }},
		{"miss > req", func(b *Benchmark) { b.Phases[0].PerInst.L2Miss = 0.5 }},
		{"negative rate", func(b *Benchmark) { b.Phases[0].PerInst.FPU = -1 }},
		{"rate too high", func(b *Benchmark) { b.Phases[0].PerInst.Prefetch = 1e300 }},
		{"NaN rate", func(b *Benchmark) { b.Phases[0].PerInst.Uops = math.NaN() }},
		{"CPI too high", func(b *Benchmark) { b.Phases[0].BaseCPI = 1e300 }},
		{"noise above 1", func(b *Benchmark) { b.Phases[0].Noise = 800 }},
		{"NaN noise", func(b *Benchmark) { b.Phases[0].Noise = math.NaN() }},
		{"freq sens of 1", func(b *Benchmark) { b.FreqSens[3] = 1 }},
	}
	for _, tc := range cases {
		b := good()
		tc.mut(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestSPECByNumberPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SPECByNumber("999")
}

func TestByNamePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { PARSECByName("nope") },
		func() { NPBByName("nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestClassString(t *testing.T) {
	if CPUBound.String() != "cpu-bound" || MemBound.String() != "mem-bound" ||
		Balanced.String() != "balanced" || !strings.HasPrefix(Class(9).String(), "Class(") {
		t.Error("Class.String labels wrong")
	}
}

func TestRunHelpers(t *testing.T) {
	mix := CappingMix()
	if len(mix.Members) != 4 {
		t.Errorf("capping mix has %d members", len(mix.Members))
	}
	if mix.TotalThreads() != 4 {
		t.Errorf("capping mix threads = %d", mix.TotalThreads())
	}
	mi := MultiInstance("433", 3)
	if len(mi.Members) != 3 || mi.TotalThreads() != 3 {
		t.Errorf("multi-instance wrong: %+v", mi)
	}
	for _, m := range mi.Members {
		if m.Bench.Name != "433.milc" {
			t.Errorf("member is %s", m.Bench.Name)
		}
	}
	if mi.String() != "433 x3" {
		t.Errorf("String = %q", mi.String())
	}
}

func TestRunsFitOnChip(t *testing.T) {
	// Every evaluation run must fit the FX-8320's eight cores.
	for _, r := range AllRuns() {
		if r.TotalThreads() > 8 {
			t.Errorf("run %s needs %d threads", r.Name, r.TotalThreads())
		}
		if r.TotalThreads() < 1 {
			t.Errorf("run %s has no threads", r.Name)
		}
	}
}

func TestFreqSensMagnitudes(t *testing.T) {
	// Observation 1 violations must stay in the paper's measured band:
	// |ε·(f2/f5−1)| between roughly 0.5% and 6%.
	for _, b := range allBenchmarks() {
		if b.Suite == "micro" {
			continue
		}
		for i, e := range b.FreqSens {
			mag := e
			if mag < 0 {
				mag = -mag
			}
			if mag > 0.12 {
				t.Errorf("%s FreqSens[%d] = %v too large", b.Name, i, e)
			}
		}
	}
}

func TestSuitesAreDistinctPointers(t *testing.T) {
	// Registry getters return copies of the slice but share the profile
	// pointers, so tuning state is consistent.
	a := SPECBenchmarks()
	b := SPECBenchmarks()
	if &a[0] == &b[0] {
		t.Error("expected distinct slice headers")
	}
	if a[0] != b[0] {
		t.Error("expected shared benchmark pointers")
	}
}

func TestOutliersAreShortAndNoisy(t *testing.T) {
	// The paper's outliers (dedup, IS, DC) are short runs with rapid
	// phase change; our profiles must reflect that.
	for _, name := range []string{"dedup"} {
		b := PARSECByName(name)
		if b.Instructions > 20e9 {
			t.Errorf("%s too long: %v", name, b.Instructions)
		}
		if b.Phases[0].Noise < 0.1 {
			t.Errorf("%s too steady", name)
		}
	}
	for _, name := range []string{"IS", "DC"} {
		b := NPBByName(name)
		if b.Instructions > 20e9 {
			t.Errorf("%s too long: %v", name, b.Instructions)
		}
		if b.Phases[0].Noise < 0.1 {
			t.Errorf("%s too steady", name)
		}
	}
}

func TestParseRunSpec(t *testing.T) {
	r, err := ParseRunSpec("433x2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Members) != 2 || r.Members[0].Bench.Name != "433.milc" {
		t.Errorf("433x2 parsed as %+v", r)
	}
	r, err = ParseRunSpec("429")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Members) != 1 || r.Members[0].Bench.Name != "429.mcf" {
		t.Errorf("429 parsed as %+v", r)
	}
	r, err = ParseRunSpec("mix")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Members) != 4 {
		t.Errorf("mix parsed as %+v", r)
	}
	for _, bad := range []string{"433x0", "433x9", "433xq", "999", "999x2", ""} {
		if _, err := ParseRunSpec(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
