package core

import (
	"fmt"
	"math"

	"ppep/internal/arch"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// PredictionRow is one VF state's scalar projection summary — the
// serving-layer view of a Projection with the per-core detail folded
// into chip-level aggregates. The JSON field names are the wire
// contract of /predict and /predict/batch.
type PredictionRow struct {
	VF arch.VFState `json:"vf"`
	// CPI is the chip-effective CPI: total cycles issued by busy cores
	// over total retired instructions (0 when the chip is idle).
	CPI units.CPI `json:"cpi"`
	// TotalIPS is the chip-wide predicted instruction throughput.
	TotalIPS units.InstPerSec `json:"ips"`
	// IdleW, DynW, and ChipW decompose the predicted chip power.
	ChipW units.Watts `json:"chip_w"`
	IdleW units.Watts `json:"idle_w"`
	DynW  units.Watts `json:"dyn_w"`
	// IntervalEnergyJ is the predicted energy of one decision interval.
	IntervalEnergyJ units.Joules `json:"interval_energy_j"`
	// JPerInst and EDP are the energy-delay-space coordinates
	// (Section V). Both are 0 — not +Inf, which JSON cannot carry —
	// when the predicted throughput is zero.
	JPerInst units.JoulesPerInst `json:"j_per_inst"`
	EDP      units.EDP           `json:"edp"`
}

// PredictionTable is the published cross-VF summary of one analyzed
// interval: one row per VF state plus the measured context. It is
// immutable once built — the daemon publishes a fresh table behind an
// atomic pointer at every interval end, so any number of concurrent
// readers share it without locks (the paper's central property, made
// operational: one observed interval prices every VF state at once).
type PredictionTable struct {
	// Seq is the monotonic sequence number of the source interval.
	Seq uint64 `json:"seq"`
	// TimeS and DurS locate the interval on the simulation clock.
	TimeS units.Seconds `json:"time_s"`
	DurS  units.Seconds `json:"dur_s"`
	// MeasuredVF is the state the interval actually ran at.
	MeasuredVF arch.VFState `json:"measured_vf"`
	// MeasPowerW and TempK are the sensor readings behind the analysis.
	MeasPowerW units.Watts  `json:"measured_power_w"`
	TempK      units.Kelvin `json:"temp_k"`
	// Rows holds one summary per VF state, index 0 = VF1.
	Rows []PredictionRow `json:"rows"`
}

// Row returns the summary for a state.
func (t *PredictionTable) Row(s arch.VFState) PredictionRow { return t.Rows[int(s)-1] }

// Validate reports the first value in t that no reader can use: a NaN
// or ±Inf anywhere (JSON has no spelling for either), or a negative
// power or energy. The daemon publishes only tables that pass.
func (t *PredictionTable) Validate() error {
	head := [...]tableValue{
		{"time_s", float64(t.TimeS), false},
		{"dur_s", float64(t.DurS), false},
		{"measured_power_w", float64(t.MeasPowerW), true},
		{"temp_k", float64(t.TempK), false},
	}
	if err := checkValues(0, head[:]); err != nil {
		return err
	}
	for i := range t.Rows {
		r := &t.Rows[i]
		row := [...]tableValue{
			{"cpi", float64(r.CPI), false},
			{"ips", float64(r.TotalIPS), false},
			{"chip_w", float64(r.ChipW), true},
			{"idle_w", float64(r.IdleW), true},
			{"dyn_w", float64(r.DynW), true},
			{"interval_energy_j", float64(r.IntervalEnergyJ), true},
			{"j_per_inst", float64(r.JPerInst), true},
			{"edp", float64(r.EDP), true},
		}
		if err := checkValues(r.VF, row[:]); err != nil {
			return err
		}
	}
	return nil
}

// tableValue is one named PredictionTable number for Validate; nonNeg
// marks the powers and energies.
type tableValue struct {
	name   string
	v      float64
	nonNeg bool
}

// checkValues checks the values of one row (vf) or of the table's
// measured context (vf 0).
func checkValues(vf arch.VFState, vals []tableValue) error {
	for _, x := range vals {
		want := ""
		switch {
		case math.IsNaN(x.v) || math.IsInf(x.v, 0):
			want = "finite"
		case x.nonNeg && x.v < 0:
			want = "non-negative"
		default:
			continue
		}
		if vf == 0 {
			return fmt.Errorf("core: prediction table %s is %g, want a %s value", x.name, x.v, want)
		}
		return fmt.Errorf("core: prediction table %s %s is %g, want a %s value", vf, x.name, x.v, want)
	}
	return nil
}

// PredictionTable flattens a Report into the immutable per-VF table the
// serving layer publishes. It performs no model evaluation — every
// number is either copied from the report or derived from it by plain
// arithmetic — and allocates exactly twice (the table and its rows).
func (m *Models) PredictionTable(seq uint64, iv trace.Interval, rep *Report) *PredictionTable {
	t := &PredictionTable{
		Seq:        seq,
		TimeS:      units.Seconds(iv.TimeS),
		DurS:       units.Seconds(iv.DurS),
		MeasuredVF: rep.MeasuredVF,
		MeasPowerW: units.Watts(iv.MeasPowerW),
		TempK:      rep.TempK,
		Rows:       make([]PredictionRow, len(rep.PerVF)),
	}
	for i := range rep.PerVF {
		p := &rep.PerVF[i]
		row := PredictionRow{
			VF:              p.VF,
			TotalIPS:        p.TotalIPS,
			ChipW:           p.ChipW,
			IdleW:           p.IdleW,
			DynW:            p.DynW,
			IntervalEnergyJ: p.IntervalEnergyJ,
		}
		if p.TotalIPS > 0 {
			// Busy cores are those the predictor attributed a CPI to.
			busy := 0
			for _, c := range p.PerCoreCPI {
				if c > 0 {
					busy++
				}
			}
			row.CPI = m.Table.Point(p.VF).Freq.AggregateCPI(busy, p.TotalIPS)
			row.JPerInst = p.ChipW.PerRate(p.TotalIPS)
			row.EDP = row.JPerInst.TimesDelay(p.TotalIPS.Invert())
		}
		t.Rows[i] = row
	}
	return t
}
