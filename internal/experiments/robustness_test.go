package experiments

import (
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/trace"
)

// Robustness tests: the models and harnesses must degrade gracefully on
// damaged measurement data — sensor dropouts, idle intervals, truncated
// traces — rather than produce NaNs or panics.

func TestPhenomCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too heavy for -short")
	}
	c, err := NewPhenomCampaign(Options{Scale: 0.04, MaxRunsPerSuite: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Idle) != 4 {
		t.Errorf("Phenom idle traces = %d, want 4", len(c.Idle))
	}
	if c.Models == nil {
		t.Fatal("Phenom models not trained")
	}
	// Its analyses stay well-formed on its own intervals.
	iv := c.Runs[0].Trace.Intervals[0]
	rep := new(core.Report)
	if err := c.Models.AnalyzeInto(iv, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.PerVF) != 4 {
		t.Errorf("Phenom projections = %d, want 4", len(rep.PerVF))
	}
	res, err := c.IdleModelAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["avg_aae"] > 0.08 {
		t.Errorf("Phenom idle AAE %.1f%%", 100*res.Metrics["avg_aae"])
	}
}

func TestAnalyzeSurvivesSensorDropout(t *testing.T) {
	c := testCampaign(t)
	iv := c.Runs[0].Trace.Intervals[1]
	iv.MeasPowerW = 0 // the Arduino hiccuped; estimates don't use it
	rep := new(core.Report)
	if err := c.Models.AnalyzeInto(iv, rep); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.PerVF {
		if p.ChipW <= 0 {
			t.Errorf("%v: non-positive estimate under dropout", p.VF)
		}
	}
}

func TestTrainingSurvivesDropoutIntervals(t *testing.T) {
	c := testCampaign(t)
	// Damage a copy of the training runs: zero every fifth measurement.
	runs := make([]core.RunTrace, 0, len(c.Runs))
	for _, rt := range c.Runs {
		cp := *rt.Trace
		cp.Intervals = append([]trace.Interval(nil), rt.Trace.Intervals...)
		for i := range cp.Intervals {
			if i%5 == 0 {
				cp.Intervals[i].MeasPowerW = 0
			}
		}
		runs = append(runs, core.RunTrace{Name: rt.Name, Suite: rt.Suite, VF: rt.VF, Trace: &cp})
	}
	ts := core.TrainingSet{IdleTraces: c.Idle, Runs: runs}
	m, err := core.Train(ts, c.Table)
	if err != nil {
		t.Fatal(err)
	}
	// Dropout samples clamp dynamic power at zero; weights must remain
	// finite and non-negative.
	for i, w := range m.Dyn.W {
		if w < 0 || w != w {
			t.Errorf("W[%d] = %v after dropout training", i, w)
		}
	}
}

func TestAnalyzeAllIdleInterval(t *testing.T) {
	c := testCampaign(t)
	iv := trace.Interval{
		DurS:      0.2,
		TempK:     318,
		Counters:  make([]arch.EventVec, 8),
		PerCoreVF: make([]arch.VFState, 8),
		Busy:      make([]bool, 8),
	}
	for i := range iv.PerCoreVF {
		iv.PerCoreVF[i] = arch.VF3
	}
	rep := new(core.Report)
	if err := c.Models.AnalyzeInto(iv, rep); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.PerVF {
		if p.DynW != 0 {
			t.Errorf("%v: idle chip predicted %v W dynamic", p.VF, p.DynW)
		}
		if p.IdleW <= 0 {
			t.Errorf("%v: idle power missing", p.VF)
		}
		if p.TotalIPS != 0 {
			t.Errorf("%v: idle chip predicted throughput", p.VF)
		}
	}
}

func TestExperimentsOnTruncatedTraces(t *testing.T) {
	// Single-interval traces (extreme truncation) must not break the
	// error harnesses.
	c := testCampaign(t)
	short := &Campaign{
		Platform: c.Platform,
		Table:    c.Table,
		ByName:   map[string]map[arch.VFState]*trace.Trace{},
		Idle:     c.Idle,
		PGSweeps: c.PGSweeps,
		Models:   c.Models,
		GG:       c.GG,
		opts:     c.opts,
	}
	for name, traces := range c.ByName {
		short.ByName[name] = map[arch.VFState]*trace.Trace{}
		for vf, tr := range traces {
			cp := *tr
			if len(cp.Intervals) > 1 {
				cp.Intervals = cp.Intervals[:1]
			}
			short.ByName[name][vf] = &cp
			short.Runs = append(short.Runs, core.RunTrace{
				Name: name, Suite: runSuite(c, name), VF: vf, Trace: &cp,
			})
		}
	}
	if _, _, err := short.Fig2(); err != nil {
		t.Errorf("Fig2 on truncated traces: %v", err)
	}
	if _, _, err := short.Fig3(); err != nil {
		t.Errorf("Fig3 on truncated traces: %v", err)
	}
}

func runSuite(c *Campaign, name string) string {
	for _, rt := range c.Runs {
		if rt.Name == name {
			return rt.Suite
		}
	}
	return "SPE"
}
