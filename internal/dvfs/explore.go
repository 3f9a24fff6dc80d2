package dvfs

import (
	"math"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// EDPoint is one VF state's position in the energy-delay space for the
// workload of one interval, normalized to fixed work (per instruction).
type EDPoint struct {
	VF arch.VFState
	// PowerW is the predicted chip power at this state.
	PowerW units.Watts
	// JPerInst is the predicted energy per retired instruction.
	JPerInst units.JoulesPerInst
	// SPerInst is the predicted delay per instruction (1/IPS).
	SPerInst units.SecondsPerInst
	// EDP is JPerInst × SPerInst (per-instruction energy-delay product).
	EDP units.EDP
}

// EDSpace converts a PPEP report into the energy-delay space the
// Section V explorations search.
func EDSpace(rep *core.Report) []EDPoint {
	var out []EDPoint
	for _, proj := range rep.PerVF {
		p := EDPoint{VF: proj.VF, PowerW: proj.ChipW}
		if proj.TotalIPS > 0 {
			p.JPerInst = proj.ChipW.PerRate(proj.TotalIPS)
			p.SPerInst = proj.TotalIPS.Invert()
			p.EDP = p.JPerInst.TimesDelay(p.SPerInst)
		} else {
			p.JPerInst = units.JoulesPerInst(math.Inf(1))
			p.SPerInst = units.SecondsPerInst(math.Inf(1))
			p.EDP = units.EDP(math.Inf(1))
		}
		out = append(out, p)
	}
	return out
}

// EnergyOptimal returns the state minimizing predicted energy per
// instruction.
func EnergyOptimal(rep *core.Report) arch.VFState {
	return argmin(EDSpace(rep), func(p EDPoint) float64 { return float64(p.JPerInst) })
}

// EDPOptimal returns the state minimizing the predicted energy-delay
// product.
func EDPOptimal(rep *core.Report) arch.VFState {
	return argmin(EDSpace(rep), func(p EDPoint) float64 { return float64(p.EDP) })
}

func argmin(pts []EDPoint, key func(EDPoint) float64) arch.VFState {
	best := pts[0].VF
	bestV := key(pts[0])
	for _, p := range pts[1:] {
		if v := key(p); v < bestV {
			best, bestV = p.VF, v
		}
	}
	return best
}

// NBAssumptions are the Section V-C2 what-if parameters for a
// hypothetical low NB state.
type NBAssumptions struct {
	// IdleDropFrac is the NB idle power reduction at NB-low (paper: 0.40).
	IdleDropFrac float64
	// DynDropFrac is the NB dynamic energy-per-operation reduction
	// (paper: 0.36, the V² factor of a 20% voltage drop).
	DynDropFrac float64
	// LLInflate is the leading-load cycle inflation at NB-low
	// (paper: 1.5).
	LLInflate float64
}

// PaperNBAssumptions returns the paper's exact Section V-C2 values.
func PaperNBAssumptions() NBAssumptions {
	return NBAssumptions{IdleDropFrac: 0.40, DynDropFrac: 0.36, LLInflate: 1.5}
}

// NBPoint is one (core VF, NB state) combination's predicted operating
// point, per unit work.
type NBPoint struct {
	CoreVF   arch.VFState
	NBLow    bool
	PowerW   units.Watts
	JPerInst units.JoulesPerInst
	SPerInst units.SecondsPerInst
}

// NBWhatIf evaluates the full (core VF × NB hi/lo) grid for one interval
// using PPEP's estimates: the paper's exact methodology of applying the
// assumed NB scaling factors to PPEP's core/NB power split and to the
// LL-MAB performance model, rather than measuring an NB-DVFS part that
// does not exist.
func NBWhatIf(m *core.Models, iv trace.Interval, rep *core.Report, a NBAssumptions) []NBPoint {
	var out []NBPoint
	for _, proj := range rep.PerVF {
		split := m.SplitDetail(iv, proj)
		// NB high: the measured configuration.
		hi := NBPoint{CoreVF: proj.VF, PowerW: split.TotalW()}
		if proj.TotalIPS > 0 {
			hi.JPerInst = hi.PowerW.PerRate(proj.TotalIPS)
			hi.SPerInst = proj.TotalIPS.Invert()
		} else {
			hi.JPerInst = units.JoulesPerInst(math.Inf(1))
			hi.SPerInst = units.SecondsPerInst(math.Inf(1))
		}
		out = append(out, hi)

		// NB low: inflate memory time, deflate NB power.
		ipsLo := ipsWithLLInflation(m, iv, proj.VF, a.LLInflate)
		scaleIPS := 0.0
		if proj.TotalIPS > 0 {
			scaleIPS = ipsLo.Per(proj.TotalIPS)
		}
		lo := NBPoint{CoreVF: proj.VF, NBLow: true}
		// Dynamic power scales with throughput (same operations per
		// instruction); NB dynamic is additionally cheaper per op.
		coreDyn := units.Watts(float64(split.CoreDynW) * scaleIPS)
		nbDyn := units.Watts(float64(split.NBDynW) * scaleIPS * (1 - a.DynDropFrac))
		nbIdle := units.Watts(float64(split.NBIdleW) * (1 - a.IdleDropFrac))
		lo.PowerW = coreDyn + nbDyn + split.CoreIdleW + nbIdle + split.BaseW
		if ipsLo > 0 {
			lo.JPerInst = lo.PowerW.PerRate(ipsLo)
			lo.SPerInst = ipsLo.Invert()
		} else {
			lo.JPerInst = units.JoulesPerInst(math.Inf(1))
			lo.SPerInst = units.SecondsPerInst(math.Inf(1))
		}
		out = append(out, lo)
	}
	return out
}

// ipsWithLLInflation recomputes the chip's predicted IPS at a core VF
// state with leading-load (memory) cycles inflated by the given factor.
func ipsWithLLInflation(m *core.Models, iv trace.Interval, s arch.VFState, inflate float64) units.InstPerSec {
	fFrom := m.Table.Point(iv.VF()).Freq
	fTo := m.Table.Point(s).Freq
	var total float64
	for c := range iv.Counters {
		rates := iv.CoreRates(c)
		inst := rates.Get(arch.RetiredInstructions)
		if inst <= 0 {
			continue
		}
		cpi := rates.Get(arch.CPUClocksNotHalted) / inst
		mcpi := rates.Get(arch.MABWaitCycles) / inst
		ccpi := cpi - mcpi
		cpiTo := ccpi + mcpi*fTo.Per(fFrom)*inflate
		if cpiTo > 0 {
			total += float64(fTo) * 1e9 / cpiTo
		}
	}
	return units.InstPerSec(total)
}

// BestEnergySaving returns the energy saving of the NB-scaled best point
// versus the NB-high best point (Figure 11a's per-mode metric): both
// sides may choose their core VF freely; only the NB capability differs.
func BestEnergySaving(points []NBPoint) float64 {
	bestHi := units.JoulesPerInst(math.Inf(1))
	bestLo := units.JoulesPerInst(math.Inf(1))
	for _, p := range points {
		if p.NBLow {
			if p.JPerInst < bestLo {
				bestLo = p.JPerInst
			}
		} else {
			if p.JPerInst < bestHi {
				bestHi = p.JPerInst
			}
		}
	}
	if bestLo > bestHi {
		bestLo = bestHi // scaling is optional; never forced to be worse
	}
	if bestHi <= 0 || math.IsInf(float64(bestHi), 1) {
		return 0
	}
	return 1 - bestLo.Per(bestHi)
}

// BestSpeedupAtEnergy returns the speedup achievable with NB scaling at
// similar energy (Figure 11b): the baseline is core-VF1 with NB high; the
// candidate is the fastest point (any NB state) whose energy does not
// exceed the baseline's by more than slack (e.g. 0.05 = 5%).
func BestSpeedupAtEnergy(points []NBPoint, slack float64) float64 {
	var base *NBPoint
	for i := range points {
		p := &points[i]
		if p.CoreVF == arch.VF1 && !p.NBLow {
			base = p
			break
		}
	}
	if base == nil || math.IsInf(float64(base.SPerInst), 1) {
		return 1
	}
	best := 1.0
	for _, p := range points {
		if float64(p.JPerInst) <= float64(base.JPerInst)*(1+slack) && p.SPerInst > 0 {
			if sp := base.SPerInst.Per(p.SPerInst); sp > best {
				best = sp
			}
		}
	}
	return best
}
