// Package core is the PPEP framework itself (Figure 5): it consumes one
// measurement interval — per-core performance counters, the VF state, and
// the temperature diode — and produces performance, power, and energy
// projections for every VF state of the platform, in one step.
//
// The pipeline per interval is the paper's ①–⑥ flow:
//
//	① the CPI predictor estimates each core's CPI at all VF states;
//	② the hardware event predictor converts current counter rates into
//	   rates at every VF state;
//	③ the dynamic power model prices those rates at each state's voltage;
//	④ the (optionally PG-aware) idle power model adds the rest;
//	⑤⑥ the projections feed DVFS decisions (internal/dvfs).
package core

import (
	"fmt"
	"math"

	"ppep/internal/arch"
	"ppep/internal/core/dynpower"
	"ppep/internal/core/eventpred"
	"ppep/internal/core/idlepower"
	"ppep/internal/core/pgidle"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// Models bundles the trained PPEP component models for one platform.
type Models struct {
	Table arch.VFTable
	Idle  *idlepower.Model
	Dyn   *dynpower.Model
	// PG holds the per-VF power-gating decomposition (Section IV-D).
	// Optional: required only for per-core attribution and core/NB
	// splits on a PG-enabled platform.
	PG map[arch.VFState]pgidle.Decomposition
	// PGEnabled records the BIOS power-gating setting the models were
	// trained under.
	PGEnabled bool
	// Thermal, when non-nil, closes the temperature loop on cross-VF
	// predictions: moving to a different VF state changes power, which
	// moves the steady-state temperature, which moves leakage. The paper
	// uses the current temperature for all states; this extension
	// iterates the prediction once against a fitted thermal line
	// T ≈ Ambient + Rth·P (see Train).
	Thermal *ThermalFeedback
}

// ThermalFeedback is the fitted steady-state thermal line.
type ThermalFeedback struct {
	AmbientK units.Kelvin
	RthKPerW units.KelvinPerWatt
}

// SteadyTempK returns the predicted steady-state temperature at a power.
func (t *ThermalFeedback) SteadyTempK(powerW units.Watts) units.Kelvin {
	return t.AmbientK + t.RthKPerW.Times(powerW)
}

// Projection is the predicted state of the chip at one VF state.
type Projection struct {
	VF arch.VFState
	// PerCoreCPI is each core's predicted CPI (0 for idle cores).
	PerCoreCPI []units.CPI
	// PerCoreDynW is each core's attributed dynamic power.
	PerCoreDynW []units.Watts
	// TotalIPS is the chip-wide predicted instruction throughput.
	TotalIPS units.InstPerSec
	// IdleW, DynW, and ChipW decompose the predicted chip power.
	IdleW, DynW, ChipW units.Watts
	// IntervalEnergyJ is the predicted energy of one decision interval
	// at this state.
	IntervalEnergyJ units.Joules
}

// Report is the full PPE analysis of one interval.
type Report struct {
	TempK units.Kelvin
	// MeasuredVF is the state the interval actually ran at.
	MeasuredVF arch.VFState
	// PerVF holds one projection per VF state, index 0 = VF1.
	PerVF []Projection
}

// At returns the projection for a state.
func (r *Report) At(s arch.VFState) Projection { return r.PerVF[int(s)-1] }

// Current returns the projection at the measured VF state — PPEP's
// estimate of what the chip is doing right now.
func (r *Report) Current() Projection { return r.At(r.MeasuredVF) }

// AnalyzeInto runs the PPEP pipeline on one interval into a
// caller-owned report. When the report's projection slices already have
// the right shape (same table size, same core count — the steady state
// of any caller analyzing a stream of intervals from one chip) they are
// reused and the analysis performs zero allocations; otherwise the
// report is (re)sized. A reused report is overwritten in place, so
// callers that retain reports hand each interval a fresh one
// (new(Report)); the fleet engine's per-node report scratch is the
// reusing consumer, and TestAnalyzeIntoAllocs pins that path.
func (m *Models) AnalyzeInto(iv trace.Interval, rep *Report) error {
	if m.Idle == nil || m.Dyn == nil {
		return fmt.Errorf("core: models not trained")
	}
	if len(iv.Counters) == 0 {
		return fmt.Errorf("core: interval has no per-core counters")
	}
	rep.TempK = units.Kelvin(iv.TempK)
	rep.MeasuredVF = iv.VF()
	if !m.Table.Contains(rep.MeasuredVF) {
		return fmt.Errorf("core: interval VF%d is outside the %d-state model table", rep.MeasuredVF, len(m.Table))
	}
	fFrom := m.Table.Point(rep.MeasuredVF).Freq

	// One backing array per field serves every state's per-core slice
	// (full-capacity sub-slices, so no state can append into the next
	// one's cells): the report owns them, and the whole analysis performs
	// a fixed number of allocations regardless of the table size — this
	// is the per-interval path of the service daemon
	// (TestServeIntervalAllocs).
	nCores := len(iv.Counters)
	nStates := len(m.Table)
	var rates, pred arch.EventVec // one core's measured and predicted rates
	if !reportFits(rep, nStates, nCores) {
		rep.PerVF = make([]Projection, nStates)
		cpiBuf := make([]units.CPI, nStates*nCores)
		dynBuf := make([]units.Watts, nStates*nCores)
		for si := range rep.PerVF {
			off := si * nCores
			rep.PerVF[si].PerCoreCPI = cpiBuf[off : off+nCores : off+nCores]
			rep.PerVF[si].PerCoreDynW = dynBuf[off : off+nCores : off+nCores]
		}
	}
	for si := 0; si < nStates; si++ {
		s := arch.VFState(si + 1)
		pt := m.Table.Point(s)
		// The projection is filled in place, its per-core columns
		// included; every other field is written below.
		proj := &rep.PerVF[si]
		for i := range proj.PerCoreCPI {
			proj.PerCoreCPI[i] = 0
			proj.PerCoreDynW[i] = 0
		}
		proj.VF = s
		proj.TotalIPS, proj.DynW = 0, 0
		for c := range iv.Counters {
			iv.CoreRatesInto(c, &rates)
			if !eventpred.PredictRates(&rates, fFrom, pt.Freq, &pred) {
				continue // idle core
			}
			inst := pred.Get(arch.RetiredInstructions)
			if inst > 0 {
				proj.PerCoreCPI[c] = units.CPI(pred.Get(arch.CPUClocksNotHalted) / inst)
			}
			proj.TotalIPS += units.InstPerSec(inst)
			dynW := m.Dyn.EstimateCore(&pred, pt.Voltage)
			proj.PerCoreDynW[c] = dynW
			proj.DynW += dynW
		}
		proj.IdleW = m.idleAt(s, pt.Voltage, &iv)
		proj.ChipW = proj.IdleW + proj.DynW
		// Thermal feedback: for states other than the measured one,
		// re-evaluate the idle model at the temperature the predicted
		// power would settle at (two fixed-point iterations converge to
		// well under the model's own error).
		if m.Thermal != nil && s != rep.MeasuredVF && !m.PGEnabled {
			for it := 0; it < 2; it++ {
				tempK := float64(m.Thermal.SteadyTempK(proj.ChipW))
				proj.IdleW = m.Idle.Estimate(pt.Voltage, units.Kelvin(tempK))
				proj.ChipW = proj.IdleW + proj.DynW
			}
		}
		proj.IntervalEnergyJ = proj.ChipW.Over(units.Seconds(iv.DurS))
		if err := m.checkRange(proj); err != nil {
			return err
		}
	}
	return nil
}

// checkRange refuses a projection that the interval's counts drove out
// of floating-point range: a non-finite dynamic power or throughput, an
// infinite chip power, or a throughput so small that the table row's
// CPI, energy per instruction or EDP overflows. Counts no counter can
// deliver (a MAB wait count 10^100 times the instruction count, say) do
// that. An unusable idle model is not refused here: the publish gates
// own it.
func (m *Models) checkRange(p *Projection) error {
	dynW, ips, chipW := float64(p.DynW), float64(p.TotalIPS), float64(p.ChipW)
	bad := math.IsNaN(dynW) || math.IsInf(dynW, 0) || math.IsNaN(ips) || math.IsInf(ips, 0) || math.IsInf(chipW, 0)
	if !bad && ips > 0 && ips < 1 {
		// The row divides by the throughput (EDP twice); from one
		// instruction a second up, a finite power keeps it finite.
		row := m.predictionRow(p)
		bad = math.IsInf(float64(row.CPI), 0) || math.IsInf(float64(row.JPerInst), 0) || math.IsInf(float64(row.EDP), 0)
	}
	if bad {
		return fmt.Errorf("core: the interval's counts put its %s projection out of range (dyn_w %g, ips %g, chip_w %g)",
			p.VF, dynW, ips, chipW)
	}
	return nil
}

// reportFits reports whether a report's projection slices can be reused
// for an analysis of nStates VF states over nCores cores.
func reportFits(rep *Report, nStates, nCores int) bool {
	if len(rep.PerVF) != nStates {
		return false
	}
	for i := range rep.PerVF {
		if len(rep.PerVF[i].PerCoreCPI) != nCores || len(rep.PerVF[i].PerCoreDynW) != nCores {
			return false
		}
	}
	return true
}

// idleAt estimates the chip idle power at a target state. With power
// gating enabled and a Figure 4 decomposition available, gated compute
// units are excluded (the Section IV-D "new power model"); otherwise the
// temperature-aware Equation 2 model applies.
func (m *Models) idleAt(s arch.VFState, v units.Volts, iv *trace.Interval) units.Watts {
	if m.PGEnabled {
		if d, ok := m.PG[s]; ok {
			return d.ChipIdleW(true, cusOf(m, iv), busyCUCount(iv, m))
		}
	}
	return m.Idle.Estimate(v, units.Kelvin(iv.TempK))
}

// EstimateChipW is the one-state shortcut: PPEP's estimate of the chip
// power for an interval at its measured VF state.
func (m *Models) EstimateChipW(iv trace.Interval) (units.Watts, error) {
	rep := new(Report)
	if err := m.AnalyzeInto(iv, rep); err != nil {
		return 0, err
	}
	return rep.Current().ChipW, nil
}

// PredictChipW predicts chip power for a per-CU state assignment (used by
// the per-CU power-capping policy of Section V-B, which assumes separate
// per-CU power planes). topo maps cores to CUs; assign holds one state
// per CU.
func (m *Models) PredictChipW(iv trace.Interval, topo arch.Topology, assign []arch.VFState) (units.Watts, error) {
	if len(assign) != topo.NumCUs {
		return 0, fmt.Errorf("core: %d assignments for %d CUs", len(assign), topo.NumCUs)
	}
	fFrom := m.Table.Point(iv.VF()).Freq
	var dyn units.Watts
	maxV := units.Volts(0)
	for cu, s := range assign {
		if !m.Table.Contains(s) {
			return 0, fmt.Errorf("core: invalid state %v for CU %d", s, cu)
		}
		if v := m.Table.Point(s).Voltage; v > maxV {
			maxV = v
		}
	}
	var rates, pred arch.EventVec
	for c := range iv.Counters {
		st := assign[topo.CUOf(c)]
		pt := m.Table.Point(st)
		// Predictions are made from each core's own measured state, so a
		// mixed-assignment interval still predicts coherently.
		from := fFrom
		if len(iv.PerCoreVF) == len(iv.Counters) {
			from = m.Table.Point(iv.PerCoreVF[c]).Freq
		}
		iv.CoreRatesInto(c, &rates)
		if !eventpred.PredictRates(&rates, from, pt.Freq, &pred) {
			continue
		}
		dyn += m.Dyn.EstimateCore(&pred, pt.Voltage)
	}
	// Idle at the highest assigned state; PG-aware when applicable.
	topState := assign[0]
	for _, s := range assign[1:] {
		if s > topState {
			topState = s
		}
	}
	idle := m.idleAt(topState, maxV, &iv)
	total := idle + dyn
	// Mirror AnalyzeInto's thermal feedback so uniform assignments agree
	// with the corresponding projection exactly.
	if m.Thermal != nil && !m.PGEnabled && topState != iv.VF() {
		for it := 0; it < 2; it++ {
			idle = m.Idle.Estimate(maxV, m.Thermal.SteadyTempK(total))
			total = idle + dyn
		}
	}
	return total, nil
}

// SplitPower is the detailed core/NB decomposition of a projection's
// power estimate (Section V-C).
type SplitPower struct {
	CoreDynW  units.Watts // E1–E7 terms of Eq. 3
	NBDynW    units.Watts // E8–E9 terms of Eq. 3 (the NB activity proxy)
	CoreIdleW units.Watts // CU idle power share
	NBIdleW   units.Watts // NB idle power
	BaseW     units.Watts // un-gateable base power
}

// CoreW returns the core-side total (Figure 10's Energy(Core) basis).
func (s SplitPower) CoreW() units.Watts { return s.CoreDynW + s.CoreIdleW }

// NBW returns the NB-side total, with the base power accounted on the NB
// side as on the paper's measurement boundary.
func (s SplitPower) NBW() units.Watts { return s.NBDynW + s.NBIdleW + s.BaseW }

// TotalW sums both sides.
func (s SplitPower) TotalW() units.Watts { return s.CoreW() + s.NBW() }

// SplitDetail splits a projection's power estimate into core and NB
// components. The dynamic split follows Equation 3's structure (E1–E7
// terms are core, E8–E9 terms proxy the NB); the idle split uses the PG
// decomposition when available, else the whole idle power is attributed
// to the core side.
func (m *Models) SplitDetail(iv trace.Interval, proj Projection) SplitPower {
	var s SplitPower
	pt := m.Table.Point(proj.VF)
	fFrom := m.Table.Point(iv.VF()).Freq
	var rates, pred arch.EventVec
	for c := range iv.Counters {
		iv.CoreRatesInto(c, &rates)
		if !eventpred.PredictRates(&rates, fFrom, pt.Freq, &pred) {
			continue
		}
		total := m.Dyn.EstimateCore(&pred, pt.Voltage)
		var nbOnly arch.EventVec
		nbOnly.Set(arch.L2CacheMisses, pred.Get(arch.L2CacheMisses))
		nbOnly.Set(arch.DispatchStalls, pred.Get(arch.DispatchStalls))
		nb := m.Dyn.EstimateCore(&nbOnly, pt.Voltage)
		s.CoreDynW += total - nb
		s.NBDynW += nb
	}
	if d, ok := m.PG[proj.VF]; ok {
		busyCUs := busyCUCount(&iv, m)
		s.CoreIdleW = d.ChipIdleW(m.PGEnabled, cusOf(m, &iv), busyCUs) - d.PidleNB - d.PidleBase
		s.NBIdleW = d.PidleNB
		s.BaseW = d.PidleBase
	} else {
		s.CoreIdleW = proj.IdleW
	}
	return s
}

// cusOf infers the CU count from the interval size assuming the FX
// two-cores-per-CU pairing when the counter count is even, else 1:1.
func cusOf(m *Models, iv *trace.Interval) int {
	n := len(iv.Counters)
	if n%2 == 0 {
		return n / 2
	}
	return n
}

// busyCUCount counts CUs with at least one busy core.
func busyCUCount(iv *trace.Interval, m *Models) int {
	per := 2
	if len(iv.Busy)%2 != 0 {
		per = 1
	}
	busy := 0
	for cu := 0; cu*per < len(iv.Busy); cu++ {
		for l := 0; l < per && cu*per+l < len(iv.Busy); l++ {
			if iv.Busy[cu*per+l] {
				busy++
				break
			}
		}
	}
	return busy
}
