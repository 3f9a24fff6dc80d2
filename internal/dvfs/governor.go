package dvfs

import (
	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// GovStep records one interval of a governor run for later analysis.
type GovStep struct {
	TimeS        units.Seconds
	VF           arch.VFState
	MeasW        units.Watts
	Instructions float64 // instruction counts are dimensionless
}

// recorder is the shared bookkeeping of the governors below.
type recorder struct {
	History []GovStep
}

func (r *recorder) record(chip *fxsim.Chip, iv trace.Interval) {
	r.History = append(r.History, GovStep{
		TimeS:        units.Seconds(iv.TimeS),
		VF:           iv.VF(),
		MeasW:        units.Watts(iv.MeasPowerW),
		Instructions: iv.Instructions(),
	})
}

// EnergyJ integrates measured energy over a history.
func EnergyJ(hist []GovStep, intervalS units.Seconds) units.Joules {
	var e units.Joules
	for _, st := range hist {
		e += st.MeasW.Over(intervalS)
	}
	return e
}

// Instructions sums retired instructions over a history.
func Instructions(hist []GovStep) float64 {
	var n float64
	for _, st := range hist {
		n += st.Instructions
	}
	return n
}

// StaticGovernor pins a single state — the paper's observation that
// static policies suffice for pure energy optimization (Section V-C1:
// "adopting dynamic DVFS policies improves the results by less than 2%").
type StaticGovernor struct {
	State arch.VFState
	recorder
}

// Decide implements fxsim.Controller.
func (g *StaticGovernor) Decide(chip *fxsim.Chip, iv trace.Interval) {
	// a rejected request leaves the previous state; retried next interval
	_ = chip.SetAllPStates(g.State)
	g.record(chip, iv)
}

// OnDemandGovernor is the Linux-ondemand-style reactive baseline: it
// watches core utilization (unhalted cycles over wall clock) and jumps to
// the top state above the up-threshold, stepping down one state at a time
// below the down-threshold. No prediction involved.
type OnDemandGovernor struct {
	recorder
}

// The utilization band of OnDemandGovernor.
const (
	onDemandUp   = 0.80
	onDemandDown = 0.30
)

// Decide implements fxsim.Controller.
func (g *OnDemandGovernor) Decide(chip *fxsim.Chip, iv trace.Interval) {
	tbl := chip.VFTable()
	// Utilization: the busiest core's unhalted-cycle share of its clock.
	util := 0.0
	for c := range iv.Counters {
		f := tbl.Point(iv.PerCoreVF[c]).Freq
		if f <= 0 || iv.DurS <= 0 {
			continue
		}
		u := iv.Counters[c].Get(arch.CPUClocksNotHalted) / (f.CyclesPerSec() * iv.DurS)
		if u > util {
			util = u
		}
	}
	cur := chip.PState(0)
	switch {
	case util >= onDemandUp:
		// a rejected request leaves the previous state; retried next interval
		_ = chip.SetAllPStates(tbl.Top())
	case util <= onDemandDown && cur > tbl.Bottom():
		// a rejected request leaves the previous state; retried next interval
		_ = chip.SetAllPStates(cur - 1)
	}
	g.record(chip, iv)
}

// PPEPGovernor applies a PPEP state pick to each interval's projections:
// EnergyOptimal is the proactive energy policy Section V-C1 envisions,
// EDPOptimal its EDP counterpart.
type PPEPGovernor struct {
	Models *core.Models
	Pick   func(*core.Report) arch.VFState
	recorder
}

// Decide implements fxsim.Controller.
func (g *PPEPGovernor) Decide(chip *fxsim.Chip, iv trace.Interval) {
	rep := new(core.Report)
	if err := g.Models.AnalyzeInto(iv, rep); err == nil {
		// a rejected request leaves the previous state; retried next interval
		_ = chip.SetAllPStates(g.Pick(rep))
	}
	g.record(chip, iv)
}
