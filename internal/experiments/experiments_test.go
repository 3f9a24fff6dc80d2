package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ppep/internal/arch"
)

// The reduced campaign: every suite capped at 8 runs, benchmarks at 1/10
// length. Built once; all experiment tests share it.
var (
	campOnce sync.Once
	camp     *Campaign
	campErr  error
)

func testCampaign(t *testing.T) *Campaign {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign too heavy for -short")
	}
	campOnce.Do(func() {
		camp, campErr = NewFXCampaign(Options{Scale: 0.08, MaxRunsPerSuite: 8})
	})
	if campErr != nil {
		t.Fatal(campErr)
	}
	return camp
}

func TestCampaignStructure(t *testing.T) {
	c := testCampaign(t)
	if len(c.Idle) != 5 {
		t.Errorf("idle traces = %d", len(c.Idle))
	}
	if len(c.Runs) != 24*5 {
		t.Errorf("run traces = %d, want 120", len(c.Runs))
	}
	if len(c.PGSweeps) != 5 {
		t.Errorf("PG sweeps = %d", len(c.PGSweeps))
	}
	if c.Models == nil || c.GG == nil {
		t.Fatal("models not trained")
	}
	if len(c.Models.PG) != 5 {
		t.Errorf("PG decompositions = %d", len(c.Models.PG))
	}
	for name, traces := range c.ByName {
		if len(traces) != 5 {
			t.Errorf("run %s has %d VF traces", name, len(traces))
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	c := testCampaign(t)
	// Rebuilding one run with the same seed must reproduce the trace
	// exactly (parallel collection must not perturb results).
	c2, err := NewFXCampaign(Options{Scale: 0.08, MaxRunsPerSuite: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, traces := range c2.ByName {
		ref, ok := c.ByName[name]
		if !ok {
			continue
		}
		for vf, tr := range traces {
			want := ref[vf]
			if want == nil {
				continue
			}
			if len(tr.Intervals) != len(want.Intervals) {
				t.Fatalf("%s@%v: interval counts differ (%d vs %d)", name, vf, len(tr.Intervals), len(want.Intervals))
			}
			for i := range tr.Intervals {
				if tr.Intervals[i].MeasPowerW != want.Intervals[i].MeasPowerW {
					t.Fatalf("%s@%v interval %d: power differs", name, vf, i)
				}
			}
		}
	}
}

func TestCPIAccuracyExperiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.CPIAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["down_aae"] > 0.10 {
		t.Errorf("CPI down error %.1f%%, want <10%%", 100*res.Metrics["down_aae"])
	}
	if res.Metrics["up_aae"] > 0.10 {
		t.Errorf("CPI up error %.1f%%, want <10%%", 100*res.Metrics["up_aae"])
	}
}

func TestFig1Experiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["start_temp_k"] <= res.Metrics["end_temp_k"] {
		t.Error("chip did not cool during the transient")
	}
	if res.Metrics["start_power_w"] <= res.Metrics["end_power_w"] {
		t.Error("idle power did not fall with temperature")
	}
}

func TestIdleModelExperiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.IdleModelAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["avg_aae"] > 0.06 {
		t.Errorf("idle AAE %.1f%%, want <6%% (paper: 2–4%%)", 100*res.Metrics["avg_aae"])
	}
}

func TestFig2Experiment(t *testing.T) {
	c := testCampaign(t)
	a, b, err := c.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: dynamic 10.6%, chip 4.6%. The reduced campaign must stay in
	// the same regime: chip error well below dynamic error.
	if a.Metrics["avg_aae"] > 0.25 {
		t.Errorf("dynamic model AAE %.1f%%", 100*a.Metrics["avg_aae"])
	}
	if b.Metrics["avg_aae"] > 0.10 {
		t.Errorf("chip model AAE %.1f%%", 100*b.Metrics["avg_aae"])
	}
	if b.Metrics["avg_aae"] >= a.Metrics["avg_aae"] {
		t.Error("chip error should be below dynamic error (idle power anchors it)")
	}
}

func TestObservationsExperiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Observations()
	if err != nil {
		t.Fatal(err)
	}
	// The paper measures 0.6–5% per-event differences and 1.7% for the
	// gap; our violations are injected at the same scale.
	for i := 1; i <= 8; i++ {
		key := "obs1_e" + string(rune('0'+i))
		if v, ok := res.Metrics[key]; ok && v > 0.10 {
			t.Errorf("%s = %.1f%%, implausibly large", key, 100*v)
		}
	}
	if res.Metrics["obs2_gap"] > 0.08 {
		t.Errorf("obs2 gap %.1f%%", 100*res.Metrics["obs2_gap"])
	}
}

func TestFig3Experiment(t *testing.T) {
	c := testCampaign(t)
	a, b, err := c.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics["avg_aae"] > 0.30 {
		t.Errorf("cross-VF dynamic error %.1f%%", 100*a.Metrics["avg_aae"])
	}
	if b.Metrics["avg_aae"] > 0.12 {
		t.Errorf("cross-VF chip error %.1f%%", 100*b.Metrics["avg_aae"])
	}
	if len(a.Rows) != 25 || len(b.Rows) != 25 {
		t.Errorf("expected 25 VF pairs, got %d/%d", len(a.Rows), len(b.Rows))
	}
	// The paper's error ladder (Section V-A): predictions landing on
	// the lowest state are the hardest, and the longest VF jumps are
	// harder than staying put.
	for _, res := range []*Result{a, b} {
		pairs := fig3PairAAE(t, res)
		mean := func(keep func(from, to string) bool) float64 {
			sum, n := 0.0, 0
			for p, v := range pairs {
				if keep(p[0], p[1]) {
					sum += v
					n++
				}
			}
			if n == 0 {
				t.Fatalf("%s: no VF pair selected", res.ID)
			}
			return sum / float64(n)
		}
		toVF1 := mean(func(_, to string) bool { return to == "VF1" })
		toVF5 := mean(func(_, to string) bool { return to == "VF5" })
		if toVF1 <= toVF5 {
			t.Errorf("%s: pairs landing on VF1 (%.2f%%) should err more than pairs landing on VF5 (%.2f%%)",
				res.ID, toVF1, toVF5)
		}
		extremes := mean(func(from, to string) bool {
			return from != to && (from == "VF1" || from == "VF5") && (to == "VF1" || to == "VF5")
		})
		same := mean(func(from, to string) bool { return from == to })
		if extremes <= same {
			t.Errorf("%s: VF5↔VF1 pairs (%.2f%%) should err more than same-state pairs (%.2f%%)",
				res.ID, extremes, same)
		}
	}
}

// fig3PairAAE reads the per-pair average AAE, in percent, back out of a
// Fig3 result's rows ("VF5→VF1", "7.5%", ...), keyed by (from, to).
func fig3PairAAE(t *testing.T, res *Result) map[[2]string]float64 {
	t.Helper()
	out := map[[2]string]float64{}
	for _, row := range res.Rows {
		from, to, ok := strings.Cut(row[0], "→")
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if !ok || err != nil {
			t.Fatalf("%s: malformed row %q", res.ID, row)
		}
		out[[2]string{from, to}] = v
	}
	return out
}

func TestFig4Experiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// The decomposition at the top state should be physically sensible.
	top := c.Table.Top().String()
	if res.Metrics["pidle_cu_"+top] <= 0 {
		t.Error("Pidle(CU) not positive at top state")
	}
	if res.Metrics["pidle_nb_"+top] <= 0 {
		t.Error("Pidle(NB) not positive at top state")
	}
	// Pidle(CU) falls with voltage.
	if res.Metrics["pidle_cu_VF1"] >= res.Metrics["pidle_cu_VF5"] {
		t.Error("Pidle(CU) should shrink at lower VF")
	}
}

func TestFig6Experiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["ppep_avg"] > 0.12 {
		t.Errorf("PPEP energy prediction %.1f%%", 100*res.Metrics["ppep_avg"])
	}
	if res.Metrics["gg_avg"] <= res.Metrics["ppep_avg"] {
		t.Errorf("Green Governors (%.1f%%) should trail PPEP (%.1f%%)",
			100*res.Metrics["gg_avg"], 100*res.Metrics["ppep_avg"])
	}
}

func TestFig7Experiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["speedup"] <= 1 {
		t.Errorf("capping speedup %.2f, want >1", res.Metrics["speedup"])
	}
	if res.Metrics["ppep_adherence"] <= res.Metrics["iter_adherence"] {
		t.Error("PPEP adherence should beat iterative")
	}
	// Paper: PPEP settles within one interval, the iterative governor
	// takes many (0.2 s vs 2.8 s).
	if res.Metrics["iter_settle_s"] < 3*res.Metrics["ppep_settle_s"] {
		t.Errorf("iterative settle %.1f s should be ≥ 3× PPEP's %.1f s",
			res.Metrics["iter_settle_s"], res.Metrics["ppep_settle_s"])
	}
}

func TestFig8Experiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (two programs × four modes)", len(res.Rows))
	}
	// Paper observation 1: the lowest VF states minimize per-thread
	// energy (the paper's VF1/VF2 bars are nearly tied for sjeng; we
	// accept either, and never a high state).
	for _, name := range []string{"433 x1", "458 x1", "433 x4", "458 x4"} {
		if got := res.Metrics["best_vf_"+name]; got > 2 {
			t.Errorf("%s: best energy at VF%v, want VF1/VF2", name, got)
		}
	}
	// Paper observation 2: at the top VF state, multi-programmed
	// memory-bound runs cost more per thread than a single instance
	// (NB contention); at the bottom state the sharing benefit wins.
	if res.Metrics["top_433 x4"] <= res.Metrics["top_433 x1"] {
		t.Errorf("obs2: milc x4 at VF5 (%.2f) should exceed x1 (%.2f)",
			res.Metrics["top_433 x4"], res.Metrics["top_433 x1"])
	}
	if res.Metrics["bottom_433 x4"] >= res.Metrics["bottom_433 x1"] {
		t.Errorf("obs2: milc x4 at VF1 (%.2f) should undercut x1 (%.2f)",
			res.Metrics["bottom_433 x4"], res.Metrics["bottom_433 x1"])
	}
	// Paper observation 3: CPU-bound instances share NB power, so
	// multi-instance per-thread energy is lower at every state.
	if res.Metrics["top_458 x4"] >= res.Metrics["top_458 x1"] {
		t.Errorf("obs3: sjeng x4 at VF5 (%.2f) should undercut x1 (%.2f)",
			res.Metrics["top_458 x4"], res.Metrics["top_458 x1"])
	}
}

func TestFig9Experiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// EDP favours high VF states for CPU-bound work (paper: VF5/VF4);
	// memory-bound work gains little delay from frequency, so its
	// optimum sits lower.
	if got := res.Metrics["best_vf_458 x1"]; got < 3 {
		t.Errorf("458 x1: best EDP at VF%v, want VF3+", got)
	}
	if got := res.Metrics["best_vf_433 x1"]; got > res.Metrics["best_vf_458 x1"] {
		t.Errorf("memory-bound EDP optimum (VF%v) should not exceed CPU-bound (VF%v)",
			got, res.Metrics["best_vf_458 x1"])
	}
}

func TestFig10Experiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	milc := res.Metrics["avg_share_433"]
	sjeng := res.Metrics["avg_share_458"]
	if milc <= sjeng {
		t.Errorf("milc NB share %.2f should exceed sjeng %.2f", milc, sjeng)
	}
	if milc < 0.3 || milc > 0.95 {
		t.Errorf("milc NB share %.2f outside plausible band", milc)
	}
}

func TestFig11Experiment(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["avg_saving"] <= 0.01 {
		t.Errorf("NB DVFS saving %.1f%%, want >1%%", 100*res.Metrics["avg_saving"])
	}
	if res.Metrics["avg_speedup"] <= 1.0 {
		t.Errorf("NB DVFS speedup %.2f, want >1", res.Metrics["avg_speedup"])
	}
}

func TestAblationAlpha(t *testing.T) {
	c := testCampaign(t)
	res, err := c.AblationAlpha()
	if err != nil {
		t.Fatal(err)
	}
	// The fitted exponent must not be worse than the fixed one where it
	// matters (the distant states it was calibrated for).
	if res.Metrics["fitted_aae"] > res.Metrics["fixed_aae"]*1.05 {
		t.Errorf("fitted α AAE %.1f%% worse than fixed %.1f%%",
			100*res.Metrics["fitted_aae"], 100*res.Metrics["fixed_aae"])
	}
}

func TestAblationNoNBEvents(t *testing.T) {
	c := testCampaign(t)
	res, err := c.AblationNoNBEvents()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["nonb_dyn_aae"] <= res.Metrics["full_dyn_aae"] {
		t.Errorf("removing NB events should hurt: full %.1f%%, blind %.1f%%",
			100*res.Metrics["full_dyn_aae"], 100*res.Metrics["nonb_dyn_aae"])
	}
}

func TestAblationMux(t *testing.T) {
	c := testCampaign(t)
	res, err := c.AblationMux()
	if err != nil {
		t.Fatal(err)
	}
	// Oracle counters must not be worse overall than multiplexed ones.
	if res.Metrics["alt_aae"] > res.Metrics["base_aae"]*1.1 {
		t.Errorf("oracle counters AAE %.1f%% worse than muxed %.1f%%",
			100*res.Metrics["alt_aae"], 100*res.Metrics["base_aae"])
	}
}

func TestAblationSensor(t *testing.T) {
	c := testCampaign(t)
	res, err := c.AblationSensor()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["alt_aae"] <= 0 || res.Metrics["base_aae"] <= 0 {
		t.Error("sensor ablation produced empty metrics")
	}
}

func TestAblationThermalFeedback(t *testing.T) {
	c := testCampaign(t)
	res, err := c.AblationThermalFeedback()
	if err != nil {
		t.Fatal(err)
	}
	// Feedback must not hurt the far pairs (it should help or be noise).
	if res.Metrics["far_fb_aae"] > res.Metrics["far_plain_aae"]*1.15 {
		t.Errorf("thermal feedback degraded far-pair error: %.1f%% vs %.1f%%",
			100*res.Metrics["far_fb_aae"], 100*res.Metrics["far_plain_aae"])
	}
	if res.Metrics["rth"] <= 0 {
		t.Error("fitted Rth not positive")
	}
}

func TestOutliers(t *testing.T) {
	c := testCampaign(t)
	res, err := c.Outliers()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["worst_aae"] <= 0 {
		t.Error("no outliers ranked")
	}
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
	// Phase volatility should correlate positively with model error.
	if res.Metrics["phase_error_corr"] < 0 {
		t.Errorf("phase-error correlation %.2f negative", res.Metrics["phase_error_corr"])
	}
}

func TestAblationLLBandwidth(t *testing.T) {
	c := testCampaign(t)
	res, err := c.AblationLLBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	// Saturated bandwidth must hurt the leading-loads invariance.
	if res.Metrics["aae_x4"] <= res.Metrics["aae_x1"] {
		t.Errorf("x4 CPI error %.1f%% should exceed x1 %.1f%%",
			100*res.Metrics["aae_x4"], 100*res.Metrics["aae_x1"])
	}
}

func TestGovernorComparison(t *testing.T) {
	c := testCampaign(t)
	res, err := c.GovernorComparison()
	if err != nil {
		t.Fatal(err)
	}
	// The PPEP energy governor must be more efficient than ondemand and
	// static-VF5; the EDP governor must retire more work than static-VF1.
	if res.Metrics["jpi_ppep-energy"] >= res.Metrics["jpi_ondemand"] {
		t.Errorf("ppep-energy %.2f nJ/inst not below ondemand %.2f",
			res.Metrics["jpi_ppep-energy"], res.Metrics["jpi_ondemand"])
	}
	if res.Metrics["jpi_ppep-energy"] >= res.Metrics["jpi_static VF5"] {
		t.Error("ppep-energy should beat static VF5 efficiency")
	}
	if res.Metrics["ginst_ppep-edp"] <= res.Metrics["ginst_static VF1"] {
		t.Error("ppep-edp should retire more work than static VF1")
	}
}

func TestAblationBoost(t *testing.T) {
	c := testCampaign(t)
	res, err := c.AblationBoost()
	if err != nil {
		t.Fatal(err)
	}
	// Unobserved boost must degrade PPEP's estimates — the paper's
	// stated reason for disabling it.
	if res.Metrics["on_aae"] <= res.Metrics["off_aae"] {
		t.Errorf("boost on AAE %.1f%% should exceed boost off %.1f%%",
			100*res.Metrics["on_aae"], 100*res.Metrics["off_aae"])
	}
}

func TestEventCorrelation(t *testing.T) {
	c := testCampaign(t)
	res, err := c.EventCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	// The headline power events must correlate positively with dynamic
	// power; uops (E1) should be among the strongest.
	if res.Metrics["corr_e1"] < 0.3 {
		t.Errorf("E1 correlation %.2f too weak", res.Metrics["corr_e1"])
	}
	for i := 1; i <= 6; i++ {
		key := fmt.Sprintf("corr_e%d", i)
		if res.Metrics[key] < 0 {
			t.Errorf("%s negative", key)
		}
	}
}

func TestAllRegistry(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Errorf("registry size %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Desc == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("fig7"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "T", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	r.Metric("m", 0.5)
	r.Notes = append(r.Notes, "n")
	s := r.String()
	for _, want := range []string{"== x: T ==", "a", "1", "m=0.5", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered result missing %q:\n%s", want, s)
		}
	}
}

func TestIsSingleThreaded(t *testing.T) {
	cases := map[string]bool{
		"429":         true,
		"blacksch x1": true,
		"EP x1":       true,
		"EP x4":       false,
		"400+401":     false,
		"433 x2":      false,
	}
	for name, want := range cases {
		if got := isSingleThreaded(name); got != want {
			t.Errorf("isSingleThreaded(%q) = %v", name, got)
		}
	}
}

func TestSeedStability(t *testing.T) {
	if seedOf("a", arch.VF1) == seedOf("a", arch.VF2) {
		t.Error("seeds collide across VF")
	}
	if seedOf("a", arch.VF1) != seedOf("a", arch.VF1) {
		t.Error("seed not stable")
	}
}

func TestWriteMarkdown(t *testing.T) {
	r := &Result{ID: "x", Title: "T|itle", Header: []string{"a", "b"}}
	r.AddRow("1|2", "3")
	r.Metric("m", 0.25)
	r.Notes = append(r.Notes, "a note")
	var sb strings.Builder
	if err := WriteMarkdown(&sb, "Report", []*Result{r}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Report", "## x — T|itle", "| a | b |", "| --- | --- |",
		"| 1\\|2 | 3 |", "`m` = 0.25", "> a note",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
