package cpimodel

import (
	"math"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/fxsim"
	"ppep/internal/stats"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

func TestPredictEquation1(t *testing.T) {
	s := Sample{CPI: 1.0, MCPI: 0.4, FreqGHz: 3.5}
	if got := s.CCPI(); math.Abs(float64(got-0.6)) > 1e-12 {
		t.Errorf("CCPI = %v", got)
	}
	// At 1.75 GHz, MCPI halves: 0.6 + 0.4·0.5 = 0.8.
	if got := s.Predict(1.75); math.Abs(float64(got-0.8)) > 1e-12 {
		t.Errorf("Predict = %v", got)
	}
	// Same frequency round-trips.
	if got := s.Predict(3.5); math.Abs(float64(got-1.0)) > 1e-12 {
		t.Errorf("identity Predict = %v", got)
	}
}

// collect runs one single-threaded benchmark on a fresh chip at vf.
func collect(t *testing.T, b *workload.Benchmark, vf arch.VFState) *trace.Trace {
	t.Helper()
	cfg := fxsim.DefaultFX8320Config()
	cfg.IdealSensor = true
	chip := fxsim.New(cfg)
	r := workload.Run{Name: b.Name, Suite: "test",
		Members: []workload.Member{{Bench: b, Threads: 1}}}
	tr, err := chip.Collect(r, fxsim.RunOpts{VF: vf})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// shortened returns a copy of the benchmark trimmed to n instructions so
// tests stay fast.
func shortened(b *workload.Benchmark, n float64) *workload.Benchmark {
	c := *b
	c.Instructions = n
	return &c
}

func TestSegmentErrorsOnSimulator(t *testing.T) {
	// The paper reports ~3–4% average CPI prediction error between VF5
	// and VF2. Run two representative programs through the simulator and
	// check the same evaluation lands in a sane band (<8%).
	fx := arch.FX8320VFTable
	f5 := fx.Point(arch.VF5).Freq
	f2 := fx.Point(arch.VF2).Freq
	for _, name := range []string{"433", "458"} {
		b := shortened(workload.SPECByNumber(name), 8e9)
		tr5 := collect(t, b, arch.VF5)
		tr2 := collect(t, b, arch.VF2)

		down, err := SegmentErrors(tr5, tr2, 0, f5, f2, 5e8)
		if err != nil {
			t.Fatalf("%s down: %v", name, err)
		}
		up, err := SegmentErrors(tr2, tr5, 0, f2, f5, 5e8)
		if err != nil {
			t.Fatalf("%s up: %v", name, err)
		}
		d := stats.SummarizeAbsErrors(down)
		u := stats.SummarizeAbsErrors(up)
		if d.Mean > 0.08 {
			t.Errorf("%s VF5→VF2 error %.1f%% too large", name, 100*d.Mean)
		}
		if u.Mean > 0.08 {
			t.Errorf("%s VF2→VF5 error %.1f%% too large", name, 100*u.Mean)
		}
	}
}

func TestSegmentErrorsPerfectOnSyntheticTrace(t *testing.T) {
	// Hand-built traces that obey Equation 1 exactly must give ~zero
	// error.
	mkTrace := func(f float64) *trace.Trace {
		tr := &trace.Trace{}
		for i := 0; i < 10; i++ {
			var ev arch.EventVec
			inst := 1e8
			ccpi := 0.7
			memNSPerInst := 0.1
			mcpi := memNSPerInst * f
			ev.Set(arch.RetiredInstructions, inst)
			ev.Set(arch.CPUClocksNotHalted, (ccpi+mcpi)*inst)
			ev.Set(arch.MABWaitCycles, mcpi*inst)
			tr.Intervals = append(tr.Intervals, trace.Interval{
				DurS:      0.2,
				Counters:  []arch.EventVec{ev},
				PerCoreVF: []arch.VFState{arch.VF5},
				Busy:      []bool{true},
			})
		}
		return tr
	}
	errs, err := SegmentErrors(mkTrace(3.5), mkTrace(1.7), 0, 3.5, 1.7, 2e8)
	if err != nil {
		t.Fatal(err)
	}
	s := stats.SummarizeAbsErrors(errs)
	if s.Mean > 1e-9 {
		t.Errorf("synthetic error %v, want ~0", s.Mean)
	}
}

func TestSegmentErrorsValidation(t *testing.T) {
	empty := &trace.Trace{}
	if _, err := SegmentErrors(empty, empty, 0, 3.5, 1.7, 1e8); err == nil {
		t.Error("empty traces accepted")
	}
	tr := &trace.Trace{Intervals: []trace.Interval{{
		DurS:      0.2,
		Counters:  []arch.EventVec{{}},
		PerCoreVF: []arch.VFState{arch.VF5},
		Busy:      []bool{false},
	}}}
	if _, err := SegmentErrors(tr, tr, 0, 3.5, 1.7, 1e8); err == nil {
		t.Error("idle traces accepted")
	}
	if _, err := SegmentErrors(tr, tr, 0, 3.5, 1.7, 0); err == nil {
		t.Error("zero segment size accepted")
	}
}

func TestSegTraceIntegration(t *testing.T) {
	s := segTrace{
		cumInst: []float64{100, 300},
		cycles:  []float64{200, 400},
		mab:     []float64{0, 0},
		inst:    []float64{100, 200},
	}
	// Whole range.
	if got := s.cyclesIn(0, 300); math.Abs(got-600) > 1e-9 {
		t.Errorf("full integral %v", got)
	}
	// Half of the first interval.
	if got := s.cyclesIn(0, 50); math.Abs(got-100) > 1e-9 {
		t.Errorf("half first %v", got)
	}
	// Straddling.
	if got := s.cyclesIn(50, 200); math.Abs(got-100-200) > 1e-9 {
		t.Errorf("straddle %v", got)
	}
}
