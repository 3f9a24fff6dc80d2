// Package cpimodel implements the paper's online LL-MAB CPI predictor
// (Section III). CPI is split into core CPI (CCPI), which is invariant
// across VF states, and memory CPI (MCPI), which scales proportionally
// with core frequency because memory latency is fixed in wall-clock terms:
//
//	CPI(f') = CCPI(f) + MCPI(f)·f'/f            (Equation 1)
//
// Three performance counters implement it: CPI = CPU Clocks not Halted /
// Retired Instructions (E10/E11), MCPI = MAB Wait Cycles / Retired
// Instructions (E12/E11), CCPI = CPI − MCPI.
package cpimodel

import (
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// Sample is one interval's performance measurement at a known frequency.
type Sample struct {
	CPI     units.CPI
	MCPI    units.CPI
	FreqGHz units.GigaHertz
}

// CCPI returns the frequency-invariant core component.
func (s Sample) CCPI() units.CPI { return s.CPI - s.MCPI }

// Predict applies Equation 1: the CPI this workload would show at
// targetGHz.
func (s Sample) Predict(targetGHz units.GigaHertz) units.CPI {
	return s.CCPI() + s.MCPI.ScaleFreq(targetGHz, s.FreqGHz)
}

// segTrace is a trace reduced to cumulative-instruction coordinates for
// one core: cumInst[i] is the instruction count at the end of interval i.
type segTrace struct {
	cumInst []float64
	cycles  []float64 // cycles in interval i
	mab     []float64 // MAB wait cycles in interval i
	inst    []float64 // instructions in interval i
}

func newSegTrace(t *trace.Trace, core int) segTrace {
	var s segTrace
	var cum float64
	for _, iv := range t.Intervals {
		ev := iv.Counters[core]
		in := ev.Get(arch.RetiredInstructions)
		if in <= 0 {
			continue
		}
		cum += in
		s.cumInst = append(s.cumInst, cum)
		s.cycles = append(s.cycles, ev.Get(arch.CPUClocksNotHalted))
		s.mab = append(s.mab, ev.Get(arch.MABWaitCycles))
		s.inst = append(s.inst, in)
	}
	return s
}

// total returns the total instructions covered.
func (s segTrace) total() float64 {
	if len(s.cumInst) == 0 {
		return 0
	}
	return s.cumInst[len(s.cumInst)-1]
}

// cyclesIn integrates actual cycles over the instruction range [a, b],
// prorating partially covered intervals.
func (s segTrace) cyclesIn(a, b float64) float64 {
	return s.integrate(a, b, s.cycles)
}

// predictedCyclesIn integrates Equation-1-predicted cycles over [a, b]:
// each overlapped interval contributes overlapInst × CPIpred(interval).
func (s segTrace) predictedCyclesIn(a, b, fFrom, fTo float64) float64 {
	var sum float64
	lo := 0.0
	for i, hi := range s.cumInst {
		if hi <= a {
			lo = hi
			continue
		}
		if lo >= b {
			break
		}
		oa, ob := lo, hi
		if oa < a {
			oa = a
		}
		if ob > b {
			ob = b
		}
		overlap := ob - oa
		if overlap > 0 && s.inst[i] > 0 {
			cpi := s.cycles[i] / s.inst[i]
			mcpi := s.mab[i] / s.inst[i]
			pred := (cpi - mcpi) + mcpi*fTo/fFrom
			sum += overlap * pred
		}
		lo = hi
	}
	return sum
}

func (s segTrace) integrate(a, b float64, vals []float64) float64 {
	var sum float64
	lo := 0.0
	for i, hi := range s.cumInst {
		if hi <= a {
			lo = hi
			continue
		}
		if lo >= b {
			break
		}
		oa, ob := lo, hi
		if oa < a {
			oa = a
		}
		if ob > b {
			ob = b
		}
		if span := hi - lo; span > 0 && ob > oa {
			sum += vals[i] * (ob - oa) / span
		}
		lo = hi
	}
	return sum
}

// SegmentErrors evaluates the predictor exactly as the paper does
// (Section III): it divides two traces of the same program — run at
// frequencies fFrom and fTo — into segments of segInst instructions,
// predicts each segment's cycle count at fTo from the fFrom trace, and
// returns the per-segment absolute relative errors versus the measured
// fTo cycles.
func SegmentErrors(from, to *trace.Trace, core int, fFrom, fTo units.GigaHertz, segInst float64) ([]float64, error) {
	if segInst <= 0 {
		return nil, fmt.Errorf("cpimodel: non-positive segment size")
	}
	sf := newSegTrace(from, core)
	st := newSegTrace(to, core)
	total := sf.total()
	if t2 := st.total(); t2 < total {
		total = t2
	}
	if total <= 0 {
		return nil, fmt.Errorf("cpimodel: traces retire no instructions on core %d", core)
	}
	var errs []float64
	for a := 0.0; a+segInst <= total; a += segInst {
		b := a + segInst
		actual := st.cyclesIn(a, b)
		pred := sf.predictedCyclesIn(a, b, float64(fFrom), float64(fTo))
		if actual <= 0 {
			continue
		}
		e := (pred - actual) / actual
		if e < 0 {
			e = -e
		}
		errs = append(errs, e)
	}
	if len(errs) == 0 {
		return nil, fmt.Errorf("cpimodel: no full segments (total %.3g instructions, segment %.3g)", total, segInst)
	}
	return errs, nil
}
