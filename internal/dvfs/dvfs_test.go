package dvfs

import (
	"math"
	"sync"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/core/pgidle"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/units"
	"ppep/internal/workload"
)

// ---- shared trained models (built once; ~seconds) ----

var (
	trainOnce sync.Once
	trained   *core.Models
	trainErr  error
)

func trainedModels(t *testing.T) *core.Models {
	t.Helper()
	trainOnce.Do(func() {
		ts := core.TrainingSet{IdleTraces: map[arch.VFState]*trace.Trace{}}
		for _, vf := range arch.FX8320VFTable.States() {
			chip := fxsim.New(fxsim.DefaultFX8320Config())
			tr, err := chip.HeatCool(vf, 40, 80)
			if err != nil {
				trainErr = err
				return
			}
			ts.IdleTraces[vf] = tr
		}
		for _, num := range []string{"429", "458", "416", "433"} {
			b := workload.SPECByNumber(num)
			short := *b
			short.Instructions = 8e9
			for _, vf := range arch.FX8320VFTable.States() {
				chip := fxsim.New(fxsim.DefaultFX8320Config())
				r := workload.Run{Name: num, Suite: "SPE",
					Members: []workload.Member{{Bench: &short, Threads: 1}}}
				tr, err := chip.Collect(r, fxsim.RunOpts{VF: vf, WarmTempK: 315})
				if err != nil {
					trainErr = err
					return
				}
				ts.Runs = append(ts.Runs, core.RunTrace{Name: num, Suite: "SPE", VF: vf, Trace: tr})
			}
		}
		trained, trainErr = core.Train(ts, arch.FX8320VFTable)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trained
}

func TestStepSchedule(t *testing.T) {
	s := StepSchedule([]units.Seconds{0, 10, 20}, []units.Watts{100, 60, 90})
	cases := []struct {
		t    units.Seconds
		want units.Watts
	}{
		{0, 100}, {5, 100}, {10, 60}, {15, 60}, {20, 90}, {99, 90},
	}
	for _, c := range cases {
		if got := s(c.t); got != c.want {
			t.Errorf("s(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestAnalyzeCapping(t *testing.T) {
	hist := []CapStep{
		{TimeS: 0.2, TargetW: 100, MeasW: 90},
		{TimeS: 0.4, TargetW: 60, MeasW: 95}, // budget dropped, violating
		{TimeS: 0.6, TargetW: 60, MeasW: 70}, // still violating
		{TimeS: 0.8, TargetW: 60, MeasW: 58}, // settled: 0.8−0.2 = 0.6 s
		{TimeS: 1.0, TargetW: 60, MeasW: 59},
	}
	m := AnalyzeCapping(hist, 0)
	if m.Violations != 2 {
		t.Errorf("violations = %d", m.Violations)
	}
	if math.Abs(m.Adherence-3.0/5.0) > 1e-12 {
		t.Errorf("adherence = %v", m.Adherence)
	}
	if math.Abs(float64(m.MeanSettleS-0.6)) > 1e-12 {
		t.Errorf("settle = %v", m.MeanSettleS)
	}
	empty := AnalyzeCapping(nil, 0)
	if empty.Adherence != 0 {
		t.Error("empty history should be zeroes")
	}
}

// runCapping executes the Figure 7 experiment with the given controller.
func runCapping(t *testing.T, ctl fxsim.Controller) *trace.Trace {
	t.Helper()
	cfg := fxsim.DefaultFX8320Config()
	cfg.PowerGating = true
	cfg.PerCUPlanes = true // the Section V-B assumption
	chip := fxsim.New(cfg)
	tr, err := chip.Collect(workload.CappingMix(), fxsim.RunOpts{
		VF: arch.VF5, MaxTimeS: 36, Restart: true, WarmTempK: 325,
		Controller: ctl, Placement: fxsim.PlaceScatter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// figure7Schedule swings the budget the way the paper's experiment does.
func figure7Schedule() CapSchedule {
	return StepSchedule(
		[]units.Seconds{0, 12, 24},
		[]units.Watts{130, 48, 105},
	)
}

func TestPPEPCappingOneStep(t *testing.T) {
	m := trainedModels(t)
	ppep := &PPEPCapper{Models: m, Target: figure7Schedule()}
	runCapping(t, ppep)
	met := AnalyzeCapping(ppep.History, 0.5)
	// The paper: single-interval settling, 94% adherence.
	if met.MeanSettleS > 0.5 {
		t.Errorf("PPEP settle time %.2f s, want ≤ one or two intervals", met.MeanSettleS)
	}
	if met.Adherence < 0.85 {
		t.Errorf("PPEP adherence %.2f, want ≥0.85", met.Adherence)
	}
}

func TestIterativeCappingIsSlower(t *testing.T) {
	m := trainedModels(t)
	ppep := &PPEPCapper{Models: m, Target: figure7Schedule()}
	runCapping(t, ppep)
	iter := &IterativeCapper{Target: figure7Schedule(), OneCUPerStep: true, UpHysteresis: 0.97}
	runCapping(t, iter)
	pm := AnalyzeCapping(ppep.History, 0.5)
	im := AnalyzeCapping(iter.History, 0.5)
	if im.MeanSettleS <= pm.MeanSettleS {
		t.Errorf("iterative settle %.2fs should exceed PPEP %.2fs", im.MeanSettleS, pm.MeanSettleS)
	}
	if im.Adherence >= pm.Adherence {
		t.Errorf("iterative adherence %.2f should trail PPEP %.2f", im.Adherence, pm.Adherence)
	}
	t.Logf("PPEP: settle %.2fs adherence %.1f%%; iterative: settle %.2fs adherence %.1f%%",
		pm.MeanSettleS, 100*pm.Adherence, im.MeanSettleS, 100*im.Adherence)
}

func TestEDSpaceShape(t *testing.T) {
	m := trainedModels(t)
	// A CPU-bound interval: energy-optimal should be the lowest state
	// (Figure 8 observation 1).
	chip := fxsim.New(fxsim.DefaultFX8320Config())
	b := *workload.SPECByNumber("458")
	b.Instructions = 3e9
	tr, err := chip.Collect(workload.Run{Name: "458", Suite: "SPE",
		Members: []workload.Member{{Bench: &b, Threads: 1}}},
		fxsim.RunOpts{VF: arch.VF5, WarmTempK: 320})
	if err != nil {
		t.Fatal(err)
	}
	iv := tr.Intervals[len(tr.Intervals)/2]
	rep := new(core.Report)
	if err := m.AnalyzeInto(iv, rep); err != nil {
		t.Fatal(err)
	}
	pts := EDSpace(rep)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// Delay per instruction must shrink with VF state.
	for i := 1; i < len(pts); i++ {
		if pts[i].SPerInst >= pts[i-1].SPerInst {
			t.Errorf("delay not decreasing at %v", pts[i].VF)
		}
	}
	if got := EnergyOptimal(rep); got != arch.VF1 {
		t.Errorf("energy-optimal %v, want VF1 (paper observation 1)", got)
	}
	// EDP-optimal is above the energy-optimal state for CPU-bound work.
	if got := EDPOptimal(rep); got < EnergyOptimal(rep) {
		t.Errorf("EDP-optimal %v below energy-optimal", got)
	}
}

func TestNBWhatIfSavesEnergy(t *testing.T) {
	m := trainedModels(t)
	// Memory-bound milc: NB scaling should show clear energy savings
	// (Figure 11a: 20–26%).
	chip := fxsim.New(fxsim.DefaultFX8320Config())
	b := *workload.SPECByNumber("433")
	b.Instructions = 3e9
	tr, err := chip.Collect(workload.Run{Name: "433", Suite: "SPE",
		Members: []workload.Member{{Bench: &b, Threads: 1}}},
		fxsim.RunOpts{VF: arch.VF5, WarmTempK: 320})
	if err != nil {
		t.Fatal(err)
	}
	iv := tr.Intervals[len(tr.Intervals)/2]
	rep := new(core.Report)
	if err := m.AnalyzeInto(iv, rep); err != nil {
		t.Fatal(err)
	}
	// Attach a PG decomposition (a copy, to keep the shared models
	// pristine): the NB what-if needs the NB idle component to scale.
	mm := *m
	mm.PG = map[arch.VFState]pgidle.Decomposition{}
	mm.PGEnabled = true
	for _, vf := range arch.FX8320VFTable.States() {
		mm.PG[vf] = pgidle.Decomposition{PidleCU: 4, PidleNB: 7, PidleBase: 3}
	}
	pts := NBWhatIf(&mm, iv, rep, PaperNBAssumptions())
	if len(pts) != 10 { // 5 states × {hi, lo}
		t.Fatalf("points = %d", len(pts))
	}
	saving := BestEnergySaving(pts)
	if saving <= 0.02 || saving >= 0.6 {
		t.Errorf("energy saving %.1f%% outside plausible band", 100*saving)
	}
	speedup := BestSpeedupAtEnergy(pts, 0.05)
	if speedup < 1.0 {
		t.Errorf("speedup %v below 1", speedup)
	}
	t.Logf("milc: NB-DVFS saving %.1f%%, speedup %.2f×", 100*saving, speedup)
}

func TestBestEnergySavingNeverNegative(t *testing.T) {
	pts := []NBPoint{
		{CoreVF: arch.VF1, NBLow: false, JPerInst: 1.0, SPerInst: 1},
		{CoreVF: arch.VF1, NBLow: true, JPerInst: 2.0, SPerInst: 1}, // worse
	}
	if s := BestEnergySaving(pts); s != 0 {
		t.Errorf("saving %v, want 0 (scaling is optional)", s)
	}
}

func TestBestSpeedupNoBaseline(t *testing.T) {
	pts := []NBPoint{{CoreVF: arch.VF5, NBLow: true, JPerInst: 1, SPerInst: 1}}
	if sp := BestSpeedupAtEnergy(pts, 0.05); sp != 1 {
		t.Errorf("speedup without baseline = %v, want 1", sp)
	}
}

func TestUniformCappingTrailsPerCU(t *testing.T) {
	// The Section V-B per-CU assumption should buy throughput under a
	// tight cap versus the shared-rail uniform controller: mixed
	// workloads let the greedy policy keep CPU-bound CUs fast.
	m := trainedModels(t)
	sched := func(units.Seconds) units.Watts { return 55 }
	perCU := &PPEPCapper{Models: m, Target: sched}
	runCapping(t, perCU)
	uniform := &PPEPCapper{Models: m, Target: sched, Uniform: true}
	runCapping(t, uniform)

	work := func(hist []CapStep) float64 {
		var mx float64
		for _, st := range hist {
			for _, s := range st.States {
				mx += float64(s)
			}
		}
		return mx
	}
	pm := AnalyzeCapping(perCU.History, 1.5)
	um := AnalyzeCapping(uniform.History, 1.5)
	if pm.Adherence < 0.7 || um.Adherence < 0.7 {
		t.Fatalf("capping broken: adherence %.2f / %.2f", pm.Adherence, um.Adherence)
	}
	// The per-CU controller should hold at least as much aggregate
	// frequency headroom as the uniform one.
	if work(perCU.History) < work(uniform.History) {
		t.Errorf("per-CU states %v below uniform %v under the same cap",
			work(perCU.History), work(uniform.History))
	}
}
