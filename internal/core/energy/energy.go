// Package energy implements the paper's energy prediction (Section V-A)
// and the Green Governors comparison baseline.
//
// PPEP predicts the next interval's energy as the current interval's
// estimated chip power times the interval length; errors combine model
// error with phase-change error, exactly as evaluated in Figure 6.
//
// Green Governors (Spiliopoulos et al. [27]) is reimplemented as the
// paper characterizes it: a theoretical CV²f dynamic power model — an
// activity-derived effective capacitance scaled by V²f — plus a static
// power table per VF state, with no north bridge contribution and no
// temperature term. Its structural gaps (NB power varies per workload;
// leakage varies with temperature) are what make it less accurate.
package energy

import (
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/stats"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// PredictNextIntervalJ is PPEP's energy prediction: current estimated
// power carried forward one interval.
func PredictNextIntervalJ(estPowerW units.Watts, intervalS units.Seconds) units.Joules {
	return estPowerW.Over(intervalS)
}

// EDP returns the energy-delay product for an energy and a delay.
func EDP(energyJ units.Joules, delayS units.Seconds) units.JouleSeconds {
	return energyJ.Times(delayS)
}

// NumGGFeatures is the size of the Green Governors activity vector.
const NumGGFeatures = 5

// GreenGovernors is the baseline chip power model.
type GreenGovernors struct {
	// StaticW is the per-VF static power table (measured once, no
	// temperature dependence).
	StaticW map[arch.VFState]units.Watts
	// C maps per-cycle core activity to effective capacitance:
	// Ceff = C0 + C1·UPC + C2·FPC + C3·DCPC + C4·ICPC (uops, FPU ops,
	// data-cache and icache accesses per unhalted cycle). NB-related
	// events and temperature are deliberately absent — the design gap
	// the paper identifies. Units fold the 1e9 cycles/GHz factor so
	// that P_dyn = Ceff·V²·f(GHz).
	C [NumGGFeatures]float64
}

// ceffFeatures extracts the Green Governors activity features: the model
// is per-core (each active core contributes Ceff(activity)·V²f), so the
// chip-level feature vector sums each busy core's per-cycle activity,
// with the constant term counting busy cores.
func ceffFeatures(iv trace.Interval) [NumGGFeatures]float64 {
	var out [NumGGFeatures]float64
	for c := range iv.Counters {
		rates := iv.CoreRates(c)
		cyc := rates.Get(arch.CPUClocksNotHalted)
		if cyc <= 0 {
			continue
		}
		out[0] += 1
		out[1] += rates.Get(arch.RetiredUOP) / cyc
		out[2] += rates.Get(arch.FPUPipeAssignment) / cyc
		out[3] += rates.Get(arch.DataCacheAccesses) / cyc
		out[4] += rates.Get(arch.InstructionCacheFetches) / cyc
	}
	return out
}

// EstimateChipW estimates chip power for an interval at its measured VF.
func (g *GreenGovernors) EstimateChipW(iv trace.Interval, tbl arch.VFTable) units.Watts {
	vf := iv.VF()
	p := tbl.Point(vf)
	f := ceffFeatures(iv)
	var ceff float64
	for i := range f {
		ceff += g.C[i] * f[i]
	}
	if ceff < 0 {
		ceff = 0
	}
	return g.StaticW[vf] + units.Watts(ceff*float64(p.Voltage)*float64(p.Voltage)*float64(p.Freq))
}

// TrainGG fits the baseline from run traces and a per-VF idle table.
// Training uses the same measurements PPEP's models see, minus what the
// Green Governors design does not use (temperature, NB events). The
// effective capacitance is fitted at the top VF state — the same
// reference-state discipline PPEP's dynamic model uses — so the baseline
// is not additionally penalized by its CV²f scaling assumption when
// evaluated there.
func TrainGG(staticW map[arch.VFState]units.Watts, traces []*trace.Trace, tbl arch.VFTable) (*GreenGovernors, error) {
	var feats [][]float64
	var targets []float64
	top := tbl.Top()
	for _, tr := range traces {
		n := len(tr.Intervals)
		for i, iv := range tr.Intervals {
			if i == n-1 && n > 1 {
				continue // trailing partial interval
			}
			vf := iv.VF()
			if vf != top {
				continue
			}
			p := tbl.Point(vf)
			s, ok := staticW[vf]
			if !ok {
				return nil, fmt.Errorf("energy: no static power entry for %v", vf)
			}
			f := ceffFeatures(iv)
			vvf := p.Voltage.V2F(p.Freq)
			row := make([]float64, NumGGFeatures)
			for i := range f {
				row[i] = f[i] * vvf
			}
			feats = append(feats, row)
			targets = append(targets, iv.MeasPowerW-float64(s))
		}
	}
	if len(feats) < NumGGFeatures {
		return nil, fmt.Errorf("energy: %d training intervals insufficient", len(feats))
	}
	lin, err := stats.NNLS(feats, targets, 0)
	if err != nil {
		return nil, fmt.Errorf("energy: regression: %w", err)
	}
	g := &GreenGovernors{StaticW: staticW}
	copy(g.C[:], lin.Weights)
	return g, nil
}

// NextIntervalErrors evaluates next-interval energy prediction over a
// trace, given an estimator of the current interval's chip power. It
// returns one absolute relative error per interval pair — the Figure 6
// metric.
func NextIntervalErrors(tr *trace.Trace, estimate func(trace.Interval) units.Watts) []float64 {
	var errs []float64
	for i := 0; i+1 < len(tr.Intervals); i++ {
		cur := tr.Intervals[i]
		next := tr.Intervals[i+1]
		pred := PredictNextIntervalJ(estimate(cur), units.Seconds(next.DurS))
		meas := next.MeasPowerW * next.DurS
		errs = append(errs, stats.AbsPctErr(float64(pred), meas))
	}
	return errs
}
