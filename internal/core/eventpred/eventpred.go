// Package eventpred implements the paper's hardware event predictor
// (Section IV-C): given one core's event rates measured at frequency f,
// it predicts what every Table I event's rate would be at frequency f',
// without ever running there. Two empirical observations make this
// possible:
//
//   - Observation 1: core-private event counts per instruction (E1–E8)
//     are independent of the VF state at a given point of execution.
//   - Observation 2: CPI − DispatchStalls/instruction is independent of
//     the VF state at a given point of execution (Equations 4–6).
//
// Combined with the LL-MAB CPI predictor, per-instruction rates plus a
// predicted instruction rate yield full event-rate vectors at any target
// frequency — the input the dynamic power model needs to predict power
// across VF states.
package eventpred

import (
	"ppep/internal/arch"
	"ppep/internal/core/cpimodel"
	"ppep/internal/units"
)

// PredictRates converts one core's event rates (events/second) at fFrom
// into predicted rates at fTo, written into out. It returns false, and
// leaves out as it was, for an idle core (no retired instructions —
// nothing to predict). Both vectors are passed by pointer, so a caller
// looping over cores and states copies none.
func PredictRates(ev *arch.EventVec, fFrom, fTo units.GigaHertz, out *arch.EventVec) bool {
	instRate := ev.Get(arch.RetiredInstructions)
	if instRate <= 0 || fFrom <= 0 || fTo <= 0 {
		return false
	}
	s := cpimodel.Sample{
		CPI:     units.CPI(ev.Get(arch.CPUClocksNotHalted) / instRate),
		MCPI:    units.CPI(ev.Get(arch.MABWaitCycles) / instRate),
		FreqGHz: fFrom,
	}
	cpiTo := s.Predict(fTo)
	if cpiTo <= 0 {
		return false
	}
	instRateTo := float64(fTo.OverCPI(cpiTo))

	// Observation 1: E1–E8 per instruction carry over unchanged.
	for i := 0; i < 8; i++ {
		perInst := ev[i] / instRate
		out[i] = perInst * instRateTo
	}
	// Observation 2: the gap CPI − DS/inst is VF-invariant, so
	// DS/inst(f') = CPI(f') − gap.
	dsPerInst := ev.Get(arch.DispatchStalls) / instRate
	gap := float64(s.CPI) - dsPerInst
	dsTo := float64(cpiTo) - gap
	if dsTo < 0 {
		dsTo = 0
	}
	out.Set(arch.DispatchStalls, dsTo*instRateTo)
	// Performance events follow from the CPI prediction directly.
	out.Set(arch.CPUClocksNotHalted, float64(cpiTo)*instRateTo)
	out.Set(arch.RetiredInstructions, instRateTo)
	out.Set(arch.MABWaitCycles, float64(s.MCPI)*fTo.Per(fFrom)*instRateTo)
	return true
}

// Gap returns the Observation 2 invariant, CPI − DispatchStalls/inst, for
// a core's rates, and ok=false for an idle core. Experiments use it to
// verify the observation on simulator traces.
func Gap(ev arch.EventVec) (units.CPI, bool) {
	inst := ev.Get(arch.RetiredInstructions)
	if inst <= 0 {
		return 0, false
	}
	cpi := ev.Get(arch.CPUClocksNotHalted) / inst
	ds := ev.Get(arch.DispatchStalls) / inst
	return units.CPI(cpi - ds), true
}

// PerInstruction returns the E1–E8 per-instruction rates (the
// Observation 1 fingerprint), and ok=false for an idle core.
func PerInstruction(ev arch.EventVec) ([8]units.EventsPerInst, bool) {
	var out [8]units.EventsPerInst
	inst := ev.Get(arch.RetiredInstructions)
	if inst <= 0 {
		return out, false
	}
	for i := range out {
		out[i] = units.EventsPerInst(ev[i] / inst)
	}
	return out, true
}
