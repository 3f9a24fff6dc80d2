package core

import (
	"math"
	"sync"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core/pgidle"
	"ppep/internal/fxsim"
	"ppep/internal/stats"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

// ---- shared mini training campaign (expensive; built once) ----

var (
	campaignOnce sync.Once
	campaign     TrainingSet
	models       *Models
	campaignErr  error
)

// trainBenches is a small but diverse slice of the suite: memory-bound,
// CPU-bound, and balanced programs.
var trainBenchNums = []string{"429", "433", "458", "416", "403", "470", "456", "483"}

func miniCampaign(t *testing.T) (*Models, TrainingSet) {
	t.Helper()
	campaignOnce.Do(func() {
		ts := TrainingSet{IdleTraces: map[arch.VFState]*trace.Trace{}}
		for _, vf := range arch.FX8320VFTable.States() {
			chip := fxsim.New(fxsim.DefaultFX8320Config())
			tr, err := chip.HeatCool(vf, 40, 80)
			if err != nil {
				campaignErr = err
				return
			}
			ts.IdleTraces[vf] = tr
		}
		for _, num := range trainBenchNums {
			b := workload.SPECByNumber(num)
			short := *b
			short.Instructions = 10e9
			for _, vf := range arch.FX8320VFTable.States() {
				chip := fxsim.New(fxsim.DefaultFX8320Config())
				r := workload.Run{Name: num, Suite: "SPE",
					Members: []workload.Member{{Bench: &short, Threads: 1}}}
				tr, err := chip.Collect(r, fxsim.RunOpts{VF: vf, WarmTempK: 315})
				if err != nil {
					campaignErr = err
					return
				}
				ts.Runs = append(ts.Runs, RunTrace{Name: num, Suite: "SPE", VF: vf, Trace: tr})
			}
		}
		campaign = ts
		models, campaignErr = Train(ts, arch.FX8320VFTable)
	})
	if campaignErr != nil {
		t.Fatal(campaignErr)
	}
	return models, campaign
}

func TestTrainProducesModels(t *testing.T) {
	m, _ := miniCampaign(t)
	if m.Idle == nil || m.Dyn == nil {
		t.Fatal("missing component models")
	}
	if m.Dyn.VRef != 1.320 {
		t.Errorf("VRef = %v", m.Dyn.VRef)
	}
	if m.Dyn.Alpha < 1.2 || m.Dyn.Alpha > 4.8 {
		t.Errorf("alpha = %v outside plausible band", m.Dyn.Alpha)
	}
}

func TestChipPowerEstimationAccuracy(t *testing.T) {
	// Figure 2(b): full-chip power model AAE ≈ 4.6% on the real part.
	// Demand <10% on the training runs here (a small training set).
	m, ts := miniCampaign(t)
	var errs []float64
	for _, rt := range ts.Runs {
		for _, iv := range rt.Trace.Intervals {
			est, err := m.EstimateChipW(iv)
			if err != nil {
				t.Fatal(err)
			}
			errs = append(errs, stats.AbsPctErr(float64(est), iv.MeasPowerW))
		}
	}
	s := stats.SummarizeAbsErrors(errs)
	if s.Mean > 0.10 {
		t.Errorf("chip power AAE %.1f%%, want <10%%", 100*s.Mean)
	}
	t.Logf("chip power AAE %.2f%% (SD %.2f%%)", 100*s.Mean, 100*s.SD)
}

func TestCrossVFPowerPrediction(t *testing.T) {
	// Figure 3(b): predict each run's average chip power at VFj from the
	// VFi trace. The paper sees 2.7–6.3% per pair; allow <12% here.
	m, ts := miniCampaign(t)
	byRun := map[string]map[arch.VFState]*trace.Trace{}
	for _, rt := range ts.Runs {
		if byRun[rt.Name] == nil {
			byRun[rt.Name] = map[arch.VFState]*trace.Trace{}
		}
		byRun[rt.Name][rt.VF] = rt.Trace
	}
	var errs []float64
	for _, traces := range byRun {
		for _, from := range arch.FX8320VFTable.States() {
			for _, to := range arch.FX8320VFTable.States() {
				src, dst := traces[from], traces[to]
				if src == nil || dst == nil {
					continue
				}
				var predSum float64
				var n int
				for _, iv := range src.Intervals {
					rep := new(Report)
					if err := m.AnalyzeInto(iv, rep); err != nil {
						t.Fatal(err)
					}
					predSum += float64(rep.At(to).ChipW)
					n++
				}
				if n == 0 {
					continue
				}
				errs = append(errs, stats.AbsPctErr(predSum/float64(n), dst.AvgMeasPowerW()))
			}
		}
	}
	s := stats.SummarizeAbsErrors(errs)
	if s.Mean > 0.12 {
		t.Errorf("cross-VF chip power error %.1f%%, want <12%%", 100*s.Mean)
	}
	t.Logf("cross-VF chip power error %.2f%% (SD %.2f%%, max %.1f%%)", 100*s.Mean, 100*s.SD, 100*s.Max)
}

func TestAnalyzeStructure(t *testing.T) {
	m, ts := miniCampaign(t)
	iv := ts.Runs[0].Trace.Intervals[1]
	rep := new(Report)
	if err := m.AnalyzeInto(iv, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.PerVF) != 5 {
		t.Fatalf("projections = %d", len(rep.PerVF))
	}
	for i, proj := range rep.PerVF {
		if proj.VF != arch.VFState(i+1) {
			t.Errorf("projection %d is %v", i, proj.VF)
		}
		if proj.ChipW <= 0 || proj.IdleW <= 0 {
			t.Errorf("%v: non-positive power", proj.VF)
		}
		if math.Abs(float64(proj.ChipW-(proj.IdleW+proj.DynW))) > 1e-9 {
			t.Errorf("%v: power decomposition broken", proj.VF)
		}
		if math.Abs(float64(proj.IntervalEnergyJ)-float64(proj.ChipW)*iv.DurS) > 1e-9 {
			t.Errorf("%v: energy inconsistent", proj.VF)
		}
	}
	// Monotonicity: higher VF → more power, more throughput.
	for i := 1; i < len(rep.PerVF); i++ {
		if rep.PerVF[i].ChipW <= rep.PerVF[i-1].ChipW {
			t.Errorf("power not increasing at %v", rep.PerVF[i].VF)
		}
		if rep.PerVF[i].TotalIPS <= rep.PerVF[i-1].TotalIPS {
			t.Errorf("IPS not increasing at %v", rep.PerVF[i].VF)
		}
	}
	if rep.Current().VF != iv.VF() {
		t.Error("Current() mismatched")
	}
}

// TestAnalyzeIntoReuseMatchesAnalyze pins the reuse contract: a report
// handed back interval after interval (the fleet engine's per-node
// scratch) must produce exactly what a fresh zero report gets, even
// after analyzing a different interval in between.
func TestAnalyzeIntoReuseMatchesAnalyze(t *testing.T) {
	m, ts := miniCampaign(t)
	var reused Report
	for _, k := range []int{1, 2, 3, 1} {
		iv := ts.Runs[k].Trace.Intervals[1]
		want := new(Report)
		if err := m.AnalyzeInto(iv, want); err != nil {
			t.Fatal(err)
		}
		if err := m.AnalyzeInto(iv, &reused); err != nil {
			t.Fatal(err)
		}
		if reused.TempK != want.TempK || reused.MeasuredVF != want.MeasuredVF {
			t.Fatalf("run %d: header mismatch", k)
		}
		for si := range want.PerVF {
			w, g := want.PerVF[si], reused.PerVF[si]
			if w.ChipW != g.ChipW || w.TotalIPS != g.TotalIPS || w.IntervalEnergyJ != g.IntervalEnergyJ {
				t.Fatalf("run %d state %d: aggregate mismatch", k, si)
			}
			for c := range w.PerCoreCPI {
				if w.PerCoreCPI[c] != g.PerCoreCPI[c] || w.PerCoreDynW[c] != g.PerCoreDynW[c] {
					t.Fatalf("run %d state %d core %d: per-core mismatch", k, si, c)
				}
			}
		}
	}
}

// TestAnalyzeIntoAllocs pins the zero-alloc reuse path: once a report
// has the right shape, analyzing a stream of intervals through it
// allocates nothing.
func TestAnalyzeIntoAllocs(t *testing.T) {
	m, ts := miniCampaign(t)
	ivs := ts.Runs[0].Trace.Intervals
	var rep Report
	if err := m.AnalyzeInto(ivs[0], &rep); err != nil {
		t.Fatal(err)
	}
	i := 0
	n := testing.AllocsPerRun(100, func() {
		i++
		if err := m.AnalyzeInto(ivs[i%len(ivs)], &rep); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("AnalyzeInto allocates %.1f times per interval on reuse, want 0", n)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	var m Models
	if err := m.AnalyzeInto(trace.Interval{}, new(Report)); err == nil {
		t.Error("untrained models accepted")
	}
	tm, ts := miniCampaign(t)
	if err := tm.AnalyzeInto(trace.Interval{}, new(Report)); err == nil {
		t.Error("empty interval accepted")
	}
	// A state past the model table (a VF5 interval under a 3-state
	// models file) is an error, not an index panic.
	iv := ts.Runs[0].Trace.Intervals[1]
	iv.PerCoreVF = append([]arch.VFState(nil), iv.PerCoreVF...)
	iv.PerCoreVF[0] = arch.VFState(len(tm.Table) + 1)
	if err := tm.AnalyzeInto(iv, new(Report)); err == nil {
		t.Error("interval VF state outside the model table accepted")
	}
}

func TestPredictChipWPerCU(t *testing.T) {
	m, ts := miniCampaign(t)
	iv := ts.Runs[0].Trace.Intervals[1]
	topo := arch.FX8320
	all5 := []arch.VFState{arch.VF5, arch.VF5, arch.VF5, arch.VF5}
	all1 := []arch.VFState{arch.VF1, arch.VF1, arch.VF1, arch.VF1}
	hi, err := m.PredictChipW(iv, topo, all5)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := m.PredictChipW(iv, topo, all1)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Errorf("per-CU prediction not monotone: %v vs %v", lo, hi)
	}
	// Uniform assignment must agree with the AnalyzeInto projection.
	rep := new(Report)
	if err := m.AnalyzeInto(iv, rep); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(hi-rep.At(arch.VF5).ChipW)) > 1e-6 {
		t.Errorf("uniform per-CU %v vs AnalyzeInto %v", hi, rep.At(arch.VF5).ChipW)
	}
	// Validation errors.
	if _, err := m.PredictChipW(iv, topo, all5[:2]); err == nil {
		t.Error("short assignment accepted")
	}
	bad := []arch.VFState{arch.VF5, arch.VF5, arch.VF5, arch.VFState(9)}
	if _, err := m.PredictChipW(iv, topo, bad); err == nil {
		t.Error("invalid state accepted")
	}
}

func TestSplitCoreNBShapes(t *testing.T) {
	m, ts := miniCampaign(t)
	m.PG = map[arch.VFState]pgidle.Decomposition{}
	for _, vf := range arch.FX8320VFTable.States() {
		m.PG[vf] = pgidle.Decomposition{PidleCU: 4, PidleNB: 6, PidleBase: 3}
	}
	// Memory-bound milc should show a larger NB share than CPU-bound
	// sjeng (Figure 10: ~60% vs ~25%).
	share := func(name string) float64 {
		for _, rt := range ts.Runs {
			if rt.Name == name && rt.VF == arch.VF5 {
				iv := rt.Trace.Intervals[len(rt.Trace.Intervals)/2]
				rep := new(Report)
				if err := m.AnalyzeInto(iv, rep); err != nil {
					t.Fatal(err)
				}
				split := m.SplitDetail(iv, rep.At(arch.VF5))
				return split.NBW().Per(split.TotalW())
			}
		}
		t.Fatalf("run %s not found", name)
		return 0
	}
	milc := share("433")
	sjeng := share("458")
	if milc <= sjeng {
		t.Errorf("NB share: milc %.2f should exceed sjeng %.2f", milc, sjeng)
	}
	if milc < 0.2 || milc > 0.9 {
		t.Errorf("milc NB share %.2f implausible", milc)
	}
}

func TestDynSampleNeverNegative(t *testing.T) {
	m, ts := miniCampaign(t)
	for _, rt := range ts.Runs[:5] {
		for _, iv := range rt.Trace.Intervals {
			s := DynSample(iv, m.Idle, arch.FX8320VFTable)
			if s.DynW < 0 {
				t.Fatal("negative dynamic power sample")
			}
		}
	}
}
