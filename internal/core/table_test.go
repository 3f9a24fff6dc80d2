package core

import (
	"math"
	"strings"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/units"
)

// TestPredictionTable pins the Report → PredictionTable flattening: the
// rows mirror the projections exactly, the derived E/D-space numbers
// follow their definitions, and the measured context rides along.
func TestPredictionTable(t *testing.T) {
	m, ts := miniCampaign(t)
	iv := ts.Runs[0].Trace.Intervals[1]
	rep, err := m.Analyze(iv)
	if err != nil {
		t.Fatal(err)
	}
	tab := m.PredictionTable(42, iv, rep)

	if tab.Seq != 42 {
		t.Errorf("seq %d, want 42", tab.Seq)
	}
	if float64(tab.TimeS) != iv.TimeS || float64(tab.DurS) != iv.DurS {
		t.Errorf("interval clock %v/%v, want %v/%v", tab.TimeS, tab.DurS, iv.TimeS, iv.DurS)
	}
	if tab.MeasuredVF != rep.MeasuredVF {
		t.Errorf("measured VF %v, want %v", tab.MeasuredVF, rep.MeasuredVF)
	}
	if float64(tab.MeasPowerW) != iv.MeasPowerW || tab.TempK != rep.TempK {
		t.Error("measured power/temperature not carried over")
	}
	if len(tab.Rows) != len(rep.PerVF) {
		t.Fatalf("%d rows, want %d", len(tab.Rows), len(rep.PerVF))
	}
	for i, row := range tab.Rows {
		proj := rep.PerVF[i]
		if row.VF != arch.VFState(i+1) {
			t.Errorf("row %d is %v", i, row.VF)
		}
		if row.ChipW != proj.ChipW || row.IdleW != proj.IdleW || row.DynW != proj.DynW ||
			row.TotalIPS != proj.TotalIPS || row.IntervalEnergyJ != proj.IntervalEnergyJ {
			t.Errorf("%v: row diverges from projection", row.VF)
		}
		if proj.TotalIPS <= 0 {
			t.Fatalf("%v: training interval unexpectedly idle", row.VF)
		}
		if want := proj.ChipW.PerRate(proj.TotalIPS); row.JPerInst != want {
			t.Errorf("%v: J/inst %v, want %v", row.VF, row.JPerInst, want)
		}
		if want := row.JPerInst.TimesDelay(proj.TotalIPS.Invert()); row.EDP != want {
			t.Errorf("%v: EDP %v, want %v", row.VF, row.EDP, want)
		}
		// One busy core retiring TotalIPS at this state's clock.
		busy := 0
		for _, c := range proj.PerCoreCPI {
			if c > 0 {
				busy++
			}
		}
		want := m.Table.Point(row.VF).Freq.AggregateCPI(busy, proj.TotalIPS)
		if math.Abs(float64(row.CPI-want)) > 1e-12 {
			t.Errorf("%v: CPI %v, want %v", row.VF, row.CPI, want)
		}
		if row.CPI <= 0 {
			t.Errorf("%v: non-positive CPI for a busy interval", row.VF)
		}
	}
	if tab.Row(arch.VF3) != tab.Rows[2] {
		t.Error("Row accessor misindexed")
	}
}

// TestPredictionTableIdle pins the zero-throughput convention: E/D-space
// coordinates are 0 (JSON-encodable), never +Inf.
func TestPredictionTableIdle(t *testing.T) {
	m, ts := miniCampaign(t)
	idle := ts.IdleTraces[arch.VF3].Intervals
	iv := idle[len(idle)-1]
	rep, err := m.Analyze(iv)
	if err != nil {
		t.Fatal(err)
	}
	tab := m.PredictionTable(1, iv, rep)
	for _, row := range tab.Rows {
		if row.TotalIPS != 0 {
			// The idle trace keeps cores unbound; any throughput means
			// the fixture changed, not that the convention broke.
			t.Skipf("idle interval reports IPS %v", row.TotalIPS)
		}
		if row.CPI != 0 || row.JPerInst != 0 || row.EDP != units.EDP(0) {
			t.Errorf("%v: idle row carries non-zero derived values: %+v", row.VF, row)
		}
		if math.IsInf(float64(row.EDP), 0) || math.IsNaN(float64(row.EDP)) {
			t.Errorf("%v: EDP not finite", row.VF)
		}
	}
}

// TestPredictionTableValidate pins the publish gate's rule: a trained
// table passes, and a NaN or infinity in any field, or a negative power
// or energy, is reported with the field that carries it.
func TestPredictionTableValidate(t *testing.T) {
	m, ts := miniCampaign(t)
	iv := ts.Runs[0].Trace.Intervals[1]
	rep, err := m.Analyze(iv)
	if err != nil {
		t.Fatal(err)
	}
	good := m.PredictionTable(1, iv, rep)
	if err := good.Validate(); err != nil {
		t.Fatalf("trained table refused: %v", err)
	}
	cases := map[string]struct {
		set  func(*PredictionTable)
		want string
	}{
		"NaN time":        {func(t *PredictionTable) { t.TimeS = units.Seconds(math.NaN()) }, "time_s is NaN"},
		"Inf temperature": {func(t *PredictionTable) { t.TempK = units.Kelvin(math.Inf(1)) }, "temp_k is +Inf"},
		"negative meas":   {func(t *PredictionTable) { t.MeasPowerW = -1 }, "measured_power_w is -1, want a non-negative"},
		"NaN CPI":         {func(t *PredictionTable) { t.Rows[2].CPI = units.CPI(math.NaN()) }, "VF3 cpi is NaN"},
		"-Inf IPS":        {func(t *PredictionTable) { t.Rows[0].TotalIPS = units.InstPerSec(math.Inf(-1)) }, "VF1 ips is -Inf"},
		"negative chip":   {func(t *PredictionTable) { t.Rows[4].ChipW = -0.5 }, "VF5 chip_w is -0.5"},
		"negative idle":   {func(t *PredictionTable) { t.Rows[1].IdleW = -2 }, "VF2 idle_w"},
		"negative dyn":    {func(t *PredictionTable) { t.Rows[1].DynW = -2 }, "VF2 dyn_w"},
		"negative energy": {func(t *PredictionTable) { t.Rows[3].IntervalEnergyJ = -2 }, "VF4 interval_energy_j"},
		"negative J/inst": {func(t *PredictionTable) { t.Rows[3].JPerInst = -2 }, "VF4 j_per_inst"},
		"NaN EDP":         {func(t *PredictionTable) { t.Rows[3].EDP = units.EDP(math.NaN()) }, "VF4 edp is NaN"},
	}
	for name, c := range cases {
		tab := *good
		tab.Rows = append([]PredictionRow(nil), good.Rows...)
		c.set(&tab)
		if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want it to mention %q", name, err, c.want)
		}
	}
}
