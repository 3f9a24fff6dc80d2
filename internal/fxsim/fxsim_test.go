package fxsim

import (
	"math"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

func newChip(t *testing.T, mut func(*Config)) *Chip {
	t.Helper()
	cfg := DefaultFX8320Config()
	cfg.IdealSensor = true // most tests want exact power
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg)
}

func TestChipInitialState(t *testing.T) {
	c := newChip(t, nil)
	if c.TimeS() != 0 {
		t.Error("time must start at zero")
	}
	for cu := 0; cu < 4; cu++ {
		if c.PState(cu) != arch.VF5 {
			t.Errorf("CU %d starts at %v", cu, c.PState(cu))
		}
	}
	if !c.AllIdle() {
		t.Error("chip must start idle")
	}
	if c.TempK() < 295 || c.TempK() > 305 {
		t.Errorf("start temp %v", c.TempK())
	}
}

func TestSetPStateValidation(t *testing.T) {
	c := newChip(t, nil)
	if err := c.SetPState(0, arch.VF2); err != nil {
		t.Fatal(err)
	}
	if c.PState(0) != arch.VF2 {
		t.Error("P-state not applied")
	}
	if err := c.SetPState(9, arch.VF2); err == nil {
		t.Error("bad CU accepted")
	}
	if err := c.SetPState(0, arch.VFState(9)); err == nil {
		t.Error("bad state accepted")
	}
}

func TestBindValidation(t *testing.T) {
	c := newChip(t, nil)
	b := workload.BenchA()
	if err := c.Bind(0, b, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(0, b, false); err == nil {
		t.Error("double bind accepted")
	}
	if err := c.Bind(-1, b, false); err == nil {
		t.Error("bad core accepted")
	}
	if !c.Busy(0) || c.Busy(1) {
		t.Error("busy flags wrong")
	}
	c.Unbind(0)
	if c.Busy(0) {
		t.Error("unbind failed")
	}
}

func TestScatterPlacement(t *testing.T) {
	c := newChip(t, nil)
	r := workload.MultiInstance("433", 4)
	used, err := c.PlaceRun(r, PlaceScatter, false)
	if err != nil {
		t.Fatal(err)
	}
	// One instance per CU: cores 0, 2, 4, 6.
	want := []int{0, 2, 4, 6}
	for i, core := range used {
		if core != want[i] {
			t.Errorf("thread %d on core %d, want %d", i, core, want[i])
		}
	}
}

func TestCompactPlacement(t *testing.T) {
	c := newChip(t, nil)
	r := workload.Run{Name: "x", Members: []workload.Member{{Bench: workload.BenchA(), Threads: 3}}}
	used, err := c.PlaceRun(r, PlaceCompact, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	for i, core := range used {
		if core != want[i] {
			t.Errorf("thread %d on core %d, want %d", i, core, want[i])
		}
	}
}

func TestPlacementOverflow(t *testing.T) {
	c := newChip(t, nil)
	r := workload.Run{Name: "x", Members: []workload.Member{{Bench: workload.BenchA(), Threads: 9}}}
	if _, err := c.PlaceRun(r, PlaceScatter, false); err == nil {
		t.Error("9 threads on 8 cores accepted")
	}
}

func TestCollectProducesIntervals(t *testing.T) {
	c := newChip(t, nil)
	r := shortRun("quick", 2e9, 1)
	tr, err := c.Collect(r, RunOpts{VF: arch.VF5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) == 0 {
		t.Fatal("no intervals")
	}
	for _, iv := range tr.Intervals {
		if math.Abs(iv.DurS-0.2) > 1e-9 {
			t.Errorf("interval duration %v", iv.DurS)
		}
		if len(iv.Counters) != 8 {
			t.Errorf("counter slices %d", len(iv.Counters))
		}
		if iv.MeasPowerW <= 0 || iv.TruePowerW <= 0 {
			t.Error("power missing")
		}
		if iv.TempK < 295 {
			t.Errorf("temp %v", iv.TempK)
		}
	}
	// All instructions retired exactly once.
	got := tr.TotalInstructions()
	if math.Abs(got-2e9)/2e9 > 0.05 {
		t.Errorf("instructions %v, want ≈2e9 (multiplexing extrapolation)", got)
	}
}

func TestLowerVFRunsSlower(t *testing.T) {
	r := shortRun("speed", 12e9, 1)
	c5 := newChip(t, nil)
	tr5, err := c5.Collect(r, RunOpts{VF: arch.VF5})
	if err != nil {
		t.Fatal(err)
	}
	c1 := newChip(t, nil)
	tr1, err := c1.Collect(r, RunOpts{VF: arch.VF1})
	if err != nil {
		t.Fatal(err)
	}
	if tr1.DurationS() <= tr5.DurationS() {
		t.Errorf("VF1 %vs not slower than VF5 %vs", tr1.DurationS(), tr5.DurationS())
	}
	// CPU-bound work scales nearly linearly with frequency (3.5/1.4 = 2.5).
	ratio := tr1.DurationS() / tr5.DurationS()
	if ratio < 2.0 || ratio > 2.7 {
		t.Errorf("slowdown %v, want near 2.5 for CPU-bound work", ratio)
	}
}

func TestLowerVFUsesLessPower(t *testing.T) {
	r := shortRun("power", 3e9, 4)
	p := map[arch.VFState]float64{}
	for _, vf := range []arch.VFState{arch.VF1, arch.VF3, arch.VF5} {
		c := newChip(t, nil)
		tr, err := c.Collect(r, RunOpts{VF: vf})
		if err != nil {
			t.Fatal(err)
		}
		p[vf] = tr.AvgMeasPowerW()
	}
	if !(p[arch.VF1] < p[arch.VF3] && p[arch.VF3] < p[arch.VF5]) {
		t.Errorf("power not monotone in VF: %v", p)
	}
}

func TestMemoryContentionSlowsDown(t *testing.T) {
	// Four milc instances contend in the NB; per-instance throughput
	// must drop versus running alone (the Figure 8 observation).
	solo := newChip(t, nil)
	trSolo, err := solo.Collect(workload.MultiInstance("433", 1), RunOpts{VF: arch.VF5})
	if err != nil {
		t.Fatal(err)
	}
	quad := newChip(t, nil)
	trQuad, err := quad.Collect(workload.MultiInstance("433", 4), RunOpts{VF: arch.VF5})
	if err != nil {
		t.Fatal(err)
	}
	if trQuad.DurationS() <= trSolo.DurationS()*1.02 {
		t.Errorf("4-up milc %vs vs solo %vs: no visible contention",
			trQuad.DurationS(), trSolo.DurationS())
	}
}

func TestCPUBoundNoContention(t *testing.T) {
	solo := newChip(t, nil)
	trSolo, err := solo.Collect(workload.MultiInstance("458", 1), RunOpts{VF: arch.VF5})
	if err != nil {
		t.Fatal(err)
	}
	quad := newChip(t, nil)
	trQuad, err := quad.Collect(workload.MultiInstance("458", 4), RunOpts{VF: arch.VF5})
	if err != nil {
		t.Fatal(err)
	}
	ratio := trQuad.DurationS() / trSolo.DurationS()
	if ratio > 1.05 {
		t.Errorf("CPU-bound sjeng slowed %v× by neighbours", ratio)
	}
}

func TestPowerGatingReducesIdlePower(t *testing.T) {
	idlePower := func(pg bool) float64 {
		c := newChip(t, func(cfg *Config) { cfg.PowerGating = pg })
		for i := 0; i < 400; i++ {
			c.Tick()
		}
		iv := c.ReadInterval()
		return iv.TruePowerW
	}
	open := idlePower(false)
	gated := idlePower(true)
	if gated >= open {
		t.Errorf("gated idle %v not below open idle %v", gated, open)
	}
	// Figure 4: the idle gap is 4×Pidle(CU)+Pidle(NB) — substantial.
	if (open-gated)/open < 0.3 {
		t.Errorf("gating saves only %v%%", 100*(open-gated)/open)
	}
}

func TestPowerGatingPerCUSteps(t *testing.T) {
	// Busy-CU sweep at VF5 (the Figure 4 experiment): each idle CU adds
	// a visible power step when PG is enabled.
	power := func(busyCUs int) float64 {
		c := newChip(t, func(cfg *Config) { cfg.PowerGating = true })
		for cu := 0; cu < busyCUs; cu++ {
			if err := c.Bind(cu*2, workload.BenchA(), true); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 400; i++ {
			c.Tick()
		}
		return c.ReadInterval().TruePowerW
	}
	prev := power(0)
	for n := 1; n <= 4; n++ {
		cur := power(n)
		if cur <= prev {
			t.Errorf("%d busy CUs: power %v not above %v", n, cur, prev)
		}
		prev = cur
	}
}

func TestRestartKeepsRunAlive(t *testing.T) {
	c := newChip(t, nil)
	r := shortRun("restart", 5e8, 1) // finishes in well under a second
	tr, err := c.Collect(r, RunOpts{VF: arch.VF5, MaxTimeS: 3, Restart: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.DurationS() < 2.9 {
		t.Errorf("restart run ended early at %vs", tr.DurationS())
	}
	// Work kept flowing to the end.
	last := tr.Intervals[len(tr.Intervals)-1]
	if last.Instructions() <= 0 {
		t.Error("no instructions in final interval")
	}
}

func TestRestartRequiresMaxTime(t *testing.T) {
	c := newChip(t, nil)
	if _, err := c.Collect(shortRun("x", 1e9, 1), RunOpts{Restart: true}); err == nil {
		t.Error("restart without MaxTimeS accepted")
	}
}

func TestHeatCoolTransient(t *testing.T) {
	c := newChip(t, nil)
	tr, err := c.HeatCool(arch.VF5, 30, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) < 100 {
		t.Fatalf("cooling trace too short: %d intervals", len(tr.Intervals))
	}
	first := tr.Intervals[0]
	last := tr.Intervals[len(tr.Intervals)-1]
	if first.TempK <= last.TempK {
		t.Errorf("chip did not cool: %v → %v", first.TempK, last.TempK)
	}
	if first.TruePowerW <= last.TruePowerW {
		t.Errorf("idle power did not fall with temperature: %v → %v",
			first.TruePowerW, last.TruePowerW)
	}
	// Temperature must have actually risen during heating.
	if first.TempK < 310 {
		t.Errorf("heating too weak: start of cooling at %v K", first.TempK)
	}
}

func TestControllerIsInvoked(t *testing.T) {
	c := newChip(t, nil)
	ctl := &countingController{}
	tr, err := c.Collect(shortRun("ctl", 3e9, 1), RunOpts{VF: arch.VF5, Controller: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.calls != len(tr.Intervals) {
		t.Errorf("controller called %d times for %d intervals", ctl.calls, len(tr.Intervals))
	}
}

func TestControllerCanChangeVF(t *testing.T) {
	c := newChip(t, nil)
	ctl := &downshiftController{target: arch.VF2}
	tr, err := c.Collect(shortRun("shift", 6e9, 1), RunOpts{VF: arch.VF5, Controller: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) < 3 {
		t.Fatal("trace too short to observe shift")
	}
	first := tr.Intervals[0]
	last := tr.Intervals[len(tr.Intervals)-1]
	if first.VF() != arch.VF5 {
		t.Errorf("first interval at %v", first.VF())
	}
	if last.VF() != arch.VF2 {
		t.Errorf("last interval at %v, want VF2", last.VF())
	}
}

func TestPerCUPlanesVoltage(t *testing.T) {
	shared := newChip(t, nil)
	if err := shared.SetPState(0, arch.VF5); err != nil {
		t.Fatal(err)
	}
	for cu := 1; cu < 4; cu++ {
		if err := shared.SetPState(cu, arch.VF1); err != nil {
			t.Fatal(err)
		}
	}
	// Shared rail: every CU at the VF5 voltage.
	shared.refreshCUOps()
	if v := shared.cuOp[3].v; v != 1.320 {
		t.Errorf("shared rail voltage %v, want 1.320", v)
	}
	planes := newChip(t, func(cfg *Config) { cfg.PerCUPlanes = true })
	if err := planes.SetPState(0, arch.VF5); err != nil {
		t.Fatal(err)
	}
	if err := planes.SetPState(3, arch.VF1); err != nil {
		t.Fatal(err)
	}
	planes.refreshCUOps()
	if v := planes.cuOp[3].v; v != 0.888 {
		t.Errorf("per-CU voltage %v, want 0.888", v)
	}
}

func TestPhenomPlatform(t *testing.T) {
	cfg := DefaultPhenomIIConfig()
	cfg.IdealSensor = true
	c := New(cfg)
	if got := c.Topology().NumCores(); got != 6 {
		t.Fatalf("cores = %d", got)
	}
	r := shortRun("phenom", 2e9, 1)
	tr, err := c.Collect(r, RunOpts{VF: arch.VF4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) == 0 || tr.AvgMeasPowerW() <= 0 {
		t.Error("Phenom run produced no usable trace")
	}
}

func TestNBPointOverride(t *testing.T) {
	c := newChip(t, nil)
	c.SetNBPoint(arch.NBLo)
	r := workload.MultiInstance("433", 1)
	trLo, err := c.Collect(r, RunOpts{VF: arch.VF5})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newChip(t, nil)
	trHi, err := c2.Collect(r, RunOpts{VF: arch.VF5})
	if err != nil {
		t.Fatal(err)
	}
	if trLo.DurationS() <= trHi.DurationS() {
		t.Error("NB low state should slow memory-bound work")
	}
}

// ---- helpers ----

func shortRun(name string, instructions float64, threads int) workload.Run {
	b := &workload.Benchmark{
		Name:         name,
		Suite:        "micro",
		Instructions: instructions,
		Phases: []workload.Phase{{
			Name: "p", Weight: 1, BaseCPI: 0.6,
			PerInst: workload.Rates{
				Uops: 1.3, FPU: 0.3, ICFetch: 0.25, DCAccess: 0.45,
				L2Req: 0.01, Branch: 0.15, Mispred: 0.004, L2Miss: 0.0005,
			},
			L3MissRatio: 0.4, MLP: 1.5, Noise: 0.02,
		}},
	}
	return workload.Run{
		Name:    name,
		Suite:   "micro",
		Members: []workload.Member{{Bench: b, Threads: threads}},
	}
}

type countingController struct{ calls int }

func (c *countingController) Decide(*Chip, trace.Interval) { c.calls++ }

type downshiftController struct{ target arch.VFState }

func (d *downshiftController) Decide(chip *Chip, _ trace.Interval) {
	_ = chip.SetAllPStates(d.target)
}

func TestBoostRaisesThroughputWhenCool(t *testing.T) {
	run := shortRun("boost", 8e9, 1)
	base := newChip(t, nil)
	trBase, err := base.Collect(run, RunOpts{VF: arch.VF5, WarmTempK: 310})
	if err != nil {
		t.Fatal(err)
	}
	boosted := newChip(t, func(cfg *Config) { cfg.BoostEnabled = true })
	trBoost, err := boosted.Collect(run, RunOpts{VF: arch.VF5, WarmTempK: 310})
	if err != nil {
		t.Fatal(err)
	}
	if trBoost.DurationS() >= trBase.DurationS() {
		t.Errorf("boost did not speed up the run: %vs vs %vs",
			trBoost.DurationS(), trBase.DurationS())
	}
	if trBoost.AvgMeasPowerW() <= trBase.AvgMeasPowerW() {
		t.Error("boost should raise power")
	}
}

func TestBoostSuppressedWhenBusyOrHot(t *testing.T) {
	// Four busy CUs: over the busy ceiling, no boost → same duration as
	// the non-boost chip.
	run := shortRun("boost4", 4e9, 8)
	base := newChip(t, nil)
	trBase, err := base.Collect(run, RunOpts{VF: arch.VF5, WarmTempK: 310})
	if err != nil {
		t.Fatal(err)
	}
	boosted := newChip(t, func(cfg *Config) { cfg.BoostEnabled = true })
	trBoost, err := boosted.Collect(run, RunOpts{VF: arch.VF5, WarmTempK: 310})
	if err != nil {
		t.Fatal(err)
	}
	if trBoost.DurationS() != trBase.DurationS() {
		t.Errorf("boost engaged with all CUs busy: %vs vs %vs",
			trBoost.DurationS(), trBase.DurationS())
	}
	// Hot package: boost also suppressed.
	hot := newChip(t, func(cfg *Config) { cfg.BoostEnabled = true })
	trHot, err := hot.Collect(shortRun("boosthot", 4e9, 1), RunOpts{VF: arch.VF5, WarmTempK: 340})
	if err != nil {
		t.Fatal(err)
	}
	cool := newChip(t, nil)
	trCool, err := cool.Collect(shortRun("boosthot", 4e9, 1), RunOpts{VF: arch.VF5, WarmTempK: 340})
	if err != nil {
		t.Fatal(err)
	}
	if trHot.DurationS() < trCool.DurationS() {
		t.Error("boost engaged on a hot package")
	}
}

func TestBoostOnlyFromTopPState(t *testing.T) {
	boosted := newChip(t, func(cfg *Config) { cfg.BoostEnabled = true })
	tr2, err := boosted.Collect(shortRun("boostp2", 4e9, 1), RunOpts{VF: arch.VF2, WarmTempK: 310})
	if err != nil {
		t.Fatal(err)
	}
	plain := newChip(t, nil)
	tr2base, err := plain.Collect(shortRun("boostp2", 4e9, 1), RunOpts{VF: arch.VF2, WarmTempK: 310})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.DurationS() != tr2base.DurationS() {
		t.Error("boost engaged below the top P-state")
	}
}

func TestSharedL2ContentionFavoursScatter(t *testing.T) {
	// Two threads on one CU (compact) share the L2; on separate CUs
	// (scatter) they do not — compact must run measurably slower for a
	// cache-active workload.
	b := &workload.Benchmark{
		Name: "l2heavy", Suite: "micro", Instructions: 4e9,
		Phases: []workload.Phase{{
			Name: "p", Weight: 1, BaseCPI: 0.6,
			PerInst: workload.Rates{
				Uops: 1.3, ICFetch: 0.25, DCAccess: 0.5,
				L2Req: 0.06, Branch: 0.12, Mispred: 0.002, L2Miss: 0.002,
			},
			L3MissRatio: 0.3, MLP: 1.5,
		}},
	}
	run := workload.Run{Name: "l2", Suite: "micro",
		Members: []workload.Member{{Bench: b, Threads: 2}}}
	scatter := newChip(t, nil)
	trS, err := scatter.Collect(run, RunOpts{VF: arch.VF5, Placement: PlaceScatter})
	if err != nil {
		t.Fatal(err)
	}
	compact := newChip(t, nil)
	trC, err := compact.Collect(run, RunOpts{VF: arch.VF5, Placement: PlaceCompact})
	if err != nil {
		t.Fatal(err)
	}
	if trC.DurationS() <= trS.DurationS() {
		t.Errorf("compact (%vs) not slower than scatter (%vs) under L2 sharing",
			trC.DurationS(), trS.DurationS())
	}
}

// TestEngineStatsCountsEveryTick pins the deprecated EngineStats shim:
// every tick runs the one tick path, so FastTicks stays 0 and
// ReferenceTicks is the number of ticks run, on a chip running a
// phase-steady workload and on a chip with counter files. Benchmark
// code divides FastTicks by the sum of both, so the count must be
// honest: a zero sum would read as NaN.
func TestEngineStatsCountsEveryTick(t *testing.T) {
	long := *workload.BenchSteady()
	long.Instructions = 1e18
	for _, tc := range []struct {
		name  string
		files bool
	}{{"steady", false}, {"counter-files", true}} {
		c := New(DefaultFX8320Config())
		for i := 0; i < c.Topology().NumCores(); i++ {
			if err := c.Bind(i, &long, false); err != nil {
				t.Fatal(err)
			}
		}
		if tc.files {
			c.EnableCounterFiles()
		}
		const n = 3*arch.DecisionIntervalMS + 7
		c.TickN(n - 1)
		c.Tick()
		if got, want := c.EngineStats(), (EngineStats{ReferenceTicks: n}); got != want {
			t.Errorf("%s: EngineStats = %+v after %d ticks, want %+v", tc.name, got, n, want)
		}
	}
}
