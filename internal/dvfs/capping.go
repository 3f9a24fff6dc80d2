// Package dvfs is PPEP's decision layer (Figure 5, steps ⑤–⑥): the
// one-step power-capping controller of Section V-B, the reactive
// iterative baseline it is compared against, energy/EDP-optimal state
// selection (Section V-C1), and the north-bridge DVFS what-if evaluator
// (Section V-C2).
package dvfs

import (
	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// CapSchedule maps time to the active power budget (the stepped target of
// Figure 7).
type CapSchedule func(timeS units.Seconds) units.Watts

// StepSchedule builds a schedule from breakpoints: targets[i] applies
// from times[i] (sorted) onward.
func StepSchedule(times []units.Seconds, targets []units.Watts) CapSchedule {
	return func(t units.Seconds) units.Watts {
		cap := targets[0]
		for i, start := range times {
			if t >= start {
				cap = targets[i]
			}
		}
		return cap
	}
}

// CapStep records one interval of a capping run.
type CapStep struct {
	TimeS   units.Seconds
	TargetW units.Watts
	MeasW   units.Watts
	States  []arch.VFState // per CU after the decision
}

// PPEPCapper is the proactive one-step controller: each interval it uses
// PPEP's cross-VF power predictions to pick, in a single step, the per-CU
// state assignment that maximizes predicted performance under the cap.
type PPEPCapper struct {
	Models *core.Models
	Target CapSchedule
	// Uniform restricts the controller to a single chip-wide state (the
	// real FX's shared voltage rail) instead of per-CU assignments —
	// the ablation counterpart of the Section V-B per-CU assumption.
	Uniform bool
	// History records the controller's trajectory for analysis.
	History []CapStep
}

// capMargin backs PPEPCapper's effective budget off the cap to absorb
// prediction error and sensor noise.
const capMargin = 0.04

// Decide implements fxsim.Controller.
func (p *PPEPCapper) Decide(chip *fxsim.Chip, iv trace.Interval) {
	topo := chip.Topology()
	capW := p.Target(units.Seconds(iv.TimeS))
	budget := units.Watts(float64(capW) * (1 - capMargin))
	var assign []arch.VFState
	if p.Uniform {
		assign = p.chooseUniform(iv, topo, budget)
	} else {
		assign = p.chooseAssignment(iv, topo, budget)
	}
	for cu, s := range assign {
		// out-of-range requests are clamped by the chip; nothing to handle
		_ = chip.SetPState(cu, s)
	}
	p.History = append(p.History, CapStep{
		TimeS:   units.Seconds(iv.TimeS),
		TargetW: capW,
		MeasW:   units.Watts(iv.MeasPowerW),
		States:  assign,
	})
}

// chooseUniform picks the highest single chip-wide state whose predicted
// power fits the budget.
func (p *PPEPCapper) chooseUniform(iv trace.Interval, topo arch.Topology, capW units.Watts) []arch.VFState {
	tbl := p.Models.Table
	assign := make([]arch.VFState, topo.NumCUs)
	for s := tbl.Top(); s >= tbl.Bottom(); s-- {
		for cu := range assign {
			assign[cu] = s
		}
		w, err := p.Models.PredictChipW(iv, topo, assign)
		if err == nil && w <= capW {
			return assign
		}
	}
	for cu := range assign {
		assign[cu] = tbl.Bottom()
	}
	return assign
}

// chooseAssignment greedily maximizes total predicted throughput under
// the cap: start with every CU at the top state, and while the predicted
// power exceeds the budget, lower the CU whose downstep costs the least
// predicted throughput per watt saved.
func (p *PPEPCapper) chooseAssignment(iv trace.Interval, topo arch.Topology, capW units.Watts) []arch.VFState {
	tbl := p.Models.Table
	assign := make([]arch.VFState, topo.NumCUs)
	for cu := range assign {
		assign[cu] = tbl.Top()
	}
	power := func(a []arch.VFState) units.Watts {
		w, err := p.Models.PredictChipW(iv, topo, a)
		if err != nil {
			return 0
		}
		return w
	}
	cur := power(assign)
	for cur > capW {
		bestCU := -1
		bestScore := 0.0
		var bestPower units.Watts
		for cu := range assign {
			if assign[cu] <= tbl.Bottom() {
				continue
			}
			trial := append([]arch.VFState(nil), assign...)
			trial[cu]--
			w := power(trial)
			saved := cur - w
			if saved <= 0 {
				saved = 1e-9
			}
			// Performance loss proxy: frequency drop weighted by the
			// CU's current instruction rate share.
			dropGHz := tbl.Point(assign[cu]).Freq - tbl.Point(trial[cu]).Freq
			lost := p.cuIPSShare(iv, topo, cu) * float64(dropGHz)
			score := float64(saved) / (lost + 1e-9)
			if bestCU == -1 || score > bestScore {
				bestCU, bestScore, bestPower = cu, score, w
			}
		}
		if bestCU == -1 {
			break // everything at the floor; cap unreachable
		}
		assign[bestCU]--
		cur = bestPower
	}
	return assign
}

// cuIPSShare returns the fraction of chip instructions retired by a CU's
// cores in the interval.
func (p *PPEPCapper) cuIPSShare(iv trace.Interval, topo arch.Topology, cu int) float64 {
	var cuInst, total float64
	for c := range iv.Counters {
		in := iv.Counters[c].Get(arch.RetiredInstructions)
		total += in
		if topo.CUOf(c) == cu {
			cuInst += in
		}
	}
	if total <= 0 {
		return 1.0 / float64(topo.NumCUs)
	}
	return cuInst / total
}

// IterativeCapper is the reactive baseline: VF steps driven only by the
// measured power, one decision per interval. Over budget → step down;
// under budget with headroom → step up. This is the "simple iterative
// policy" of Figure 7.
type IterativeCapper struct {
	Target CapSchedule
	// UpHysteresis is the fraction of the cap below which the controller
	// tries stepping back up (default 0.92 when zero).
	UpHysteresis float64
	// OneCUPerStep makes each interval adjust a single CU by one state —
	// the finest-grained reactive search, and the configuration whose
	// convergence the paper's 2.8 s settling time reflects. When false,
	// every CU steps together.
	OneCUPerStep bool
	History      []CapStep
}

// Decide implements fxsim.Controller.
func (c *IterativeCapper) Decide(chip *fxsim.Chip, iv trace.Interval) {
	topo := chip.Topology()
	tbl := chip.VFTable()
	capW := c.Target(units.Seconds(iv.TimeS))
	hys := c.UpHysteresis
	if hys == 0 {
		hys = 0.92
	}
	states := make([]arch.VFState, topo.NumCUs)
	for cu := range states {
		states[cu] = chip.PState(cu)
	}
	if units.Watts(iv.MeasPowerW) > capW {
		if c.OneCUPerStep {
			// Lower the highest-state CU one notch.
			best := -1
			for cu, s := range states {
				if s > tbl.Bottom() && (best == -1 || s > states[best]) {
					best = cu
				}
			}
			if best >= 0 {
				states[best]--
			}
		} else {
			for cu := range states {
				if states[cu] > tbl.Bottom() {
					states[cu]--
				}
			}
		}
	} else if iv.MeasPowerW < float64(capW)*hys {
		if c.OneCUPerStep {
			// Raise the lowest-state CU one notch.
			best := -1
			for cu, s := range states {
				if s < tbl.Top() && (best == -1 || s < states[best]) {
					best = cu
				}
			}
			if best >= 0 {
				states[best]++
			}
		} else {
			for cu := range states {
				if states[cu] < tbl.Top() {
					states[cu]++
				}
			}
		}
	}
	for cu, s := range states {
		// out-of-range requests are clamped by the chip; nothing to handle
		_ = chip.SetPState(cu, s)
	}
	c.History = append(c.History, CapStep{
		TimeS:   units.Seconds(iv.TimeS),
		TargetW: capW,
		MeasW:   units.Watts(iv.MeasPowerW),
		States:  states,
	})
}

// CapMetrics summarizes a capping run the way Section V-B reports it.
type CapMetrics struct {
	// Adherence is the fraction of intervals whose measured power was
	// within the budget (with a small tolerance for sensor noise).
	Adherence float64
	// MeanSettleS is the average time from a budget drop to the first
	// compliant interval.
	MeanSettleS units.Seconds
	// Violations counts over-budget intervals.
	Violations int
}

// AnalyzeCapping computes metrics from a controller history. tolW is the
// compliance tolerance in watts (sensor noise allowance).
func AnalyzeCapping(hist []CapStep, tolW units.Watts) CapMetrics {
	var m CapMetrics
	if len(hist) == 0 {
		return m
	}
	compliant := 0
	var settleSum units.Seconds
	var settles int
	pendingDrop := units.Seconds(-1) // time of an unresolved budget drop
	for i, st := range hist {
		ok := st.MeasW <= st.TargetW+tolW
		if ok {
			compliant++
		} else {
			m.Violations++
		}
		if i > 0 && st.TargetW < hist[i-1].TargetW-tolW {
			pendingDrop = hist[i-1].TimeS
		}
		if pendingDrop >= 0 && ok {
			settleSum += st.TimeS - pendingDrop
			settles++
			pendingDrop = -1
		}
	}
	m.Adherence = float64(compliant) / float64(len(hist))
	if settles > 0 {
		m.MeanSettleS = units.Seconds(float64(settleSum) / float64(settles))
	}
	return m
}
