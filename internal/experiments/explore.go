package experiments

import (
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/dvfs"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

// exploreBenches are the Section V featured programs: memory-bound
// 433.milc and CPU-bound 458.sjeng.
var exploreBenches = []string{"433", "458"}

// exploreModes are the instance counts (x1..x4, one instance per CU).
var exploreModes = []int{1, 2, 3, 4}

// exploreTraces runs the Section V workloads (433/458 × x1..x4) at the
// top VF state with power gating enabled, as the paper does ("power
// gating is enabled for all of these experiments"): one job list over
// the worker pool, its cells sealed to the trace cache afterwards.
func (c *Campaign) exploreTraces() (map[string]*trace.Trace, error) {
	c.exploreOnce.Do(func() {
		p := c.explorePhase()
		c.exploreErr = c.runPhases(p.jobs, p)
	})
	return c.exploreTr, c.exploreErr
}

// explorePhase simulates the Section V cells into c.exploreTr.
func (c *Campaign) explorePhase() phase {
	var runs []workload.Run
	for _, num := range exploreBenches {
		for _, n := range exploreModes {
			runs = append(runs, workload.MultiInstance(num, n))
		}
	}
	trs := make([]*trace.Trace, len(runs))
	errs := make([]error, len(runs))
	jobs := make([]func(), len(runs))
	for i, run := range runs {
		jobs[i] = func() {
			cfg := c.ChipConfig()
			cfg.PowerGating = true
			cfg.SensorSeed = seedOf("explore-"+run.Name, c.Table.Top())
			scaled := scaleRun(run, c.opts.Scale)
			ro := fxsim.RunOpts{
				VF: c.Table.Top(), WarmTempK: 320,
				Placement: fxsim.PlaceScatter, MaxTimeS: 600,
			}
			trs[i], errs[i] = c.simulate("explore", cfg, collectDef{Run: scaled, Opts: ro},
				func() (*trace.Trace, error) {
					return fxsim.New(cfg).Collect(scaled, ro)
				})
		}
	}
	return phase{jobs: jobs, finish: func() error {
		c.exploreTr = make(map[string]*trace.Trace, len(runs))
		for i, run := range runs {
			if errs[i] != nil {
				return fmt.Errorf("experiments: explore run %s: %w", run.Name, errs[i])
			}
			c.exploreTr[run.Name] = trs[i]
		}
		return nil
	}}
}

// pgModels returns the campaign models flipped into PG-enabled mode
// (Section IV-D: the PG-aware per-core model reuses the same dynamic
// model with the decomposition-based idle attribution).
func (c *Campaign) pgModels() *core.Models {
	m := *c.Models
	m.PGEnabled = true
	return &m
}

// threadPPE is one (state → per-thread energy/delay) exploration of a run.
type threadPPE struct {
	EnergyJ map[arch.VFState]float64
	DelayS  map[arch.VFState]float64
}

// explorePPE integrates per-thread energy and delay across a run's trace
// for every VF state, using PPEP's per-core power attribution
// (Equations 3 and 7).
func (c *Campaign) explorePPE(tr *trace.Trace) (threadPPE, error) {
	m := c.pgModels()
	out := threadPPE{
		EnergyJ: map[arch.VFState]float64{},
		DelayS:  map[arch.VFState]float64{},
	}
	topo := arch.FX8320
	threads := 0
	for _, iv := range tr.Intervals {
		rep := new(core.Report)
		if err := m.AnalyzeInto(iv, rep); err != nil {
			return out, err
		}
		busyInChip := 0
		busyPerCU := make([]int, topo.NumCUs)
		for ci, b := range iv.Busy {
			if b {
				busyInChip++
				busyPerCU[topo.CUOf(ci)]++
			}
		}
		if busyInChip == 0 {
			continue
		}
		if busyInChip > threads {
			threads = busyInChip
		}
		for _, s := range c.Table.States() {
			proj := rep.At(s)
			d := m.PG[s]
			fTo := c.Table.Point(s).Freq
			for ci := range iv.Counters {
				if !iv.Busy[ci] {
					continue
				}
				inst := iv.Counters[ci].Get(arch.RetiredInstructions)
				if inst <= 0 || proj.PerCoreCPI[ci] <= 0 {
					continue
				}
				ips := float64(fTo) * 1e9 / float64(proj.PerCoreCPI[ci])
				timeAtS := inst / ips
				idleShare := d.PerCoreIdleW(true, topo.NumCUs, busyPerCU[topo.CUOf(ci)], busyInChip)
				out.EnergyJ[s] += float64(proj.PerCoreDynW[ci]+idleShare) * timeAtS
				out.DelayS[s] += timeAtS
			}
		}
	}
	if threads > 0 {
		for s := range out.EnergyJ {
			out.EnergyJ[s] /= float64(threads)
			out.DelayS[s] /= float64(threads)
		}
	}
	return out, nil
}

// Fig8 reproduces Figure 8: per-thread energy of 433.milc and 458.sjeng
// at every VF state with x1..x4 instances, normalized to each program's
// (x1, VF5) value.
func (c *Campaign) Fig8() (*Result, error) {
	return c.exploreTable("fig8", "Per-thread energy across VF states and instance counts",
		func(p threadPPE, s arch.VFState) float64 { return p.EnergyJ[s] },
		[]string{
			"paper obs.1: the lowest VF state minimizes energy for both programs",
			"paper obs.2: multi-instance memory-bound runs raise per-thread energy at high VF (NB contention)",
			"paper obs.3: multi-instance CPU-bound runs lower per-thread energy (shared NB power)",
		})
}

// Fig9 reproduces Figure 9: per-thread EDP on the same grid (the paper:
// the best-EDP state shifts from VF5 toward VF4 as instances are added).
func (c *Campaign) Fig9() (*Result, error) {
	return c.exploreTable("fig9", "Per-thread EDP across VF states and instance counts",
		func(p threadPPE, s arch.VFState) float64 { return p.EnergyJ[s] * p.DelayS[s] },
		[]string{"paper: best-EDP state shifts from VF5 toward VF4 with more background instances"})
}

func (c *Campaign) exploreTable(id, title string, metric func(threadPPE, arch.VFState) float64, notes []string) (*Result, error) {
	traces, err := c.exploreTraces()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title}
	res.Header = []string{"run"}
	states := c.Table.States()
	for i := len(states) - 1; i >= 0; i-- {
		res.Header = append(res.Header, states[i].String())
	}
	for _, num := range exploreBenches {
		var base float64
		for _, n := range exploreModes {
			name := fmt.Sprintf("%s x%d", num, n)
			tr, ok := traces[name]
			if !ok {
				continue
			}
			ppe, err := c.explorePPE(tr)
			if err != nil {
				return nil, err
			}
			if n == 1 {
				base = metric(ppe, c.Table.Top())
			}
			row := []string{name}
			bestVF, bestV := arch.VFState(0), 0.0
			for i := len(states) - 1; i >= 0; i-- {
				s := states[i]
				v := metric(ppe, s)
				norm := 0.0
				if base > 0 {
					norm = v / base
				}
				row = append(row, f2(norm))
				if s == c.Table.Top() {
					res.Metric("top_"+name, norm)
				}
				if s == c.Table.Bottom() {
					res.Metric("bottom_"+name, norm)
				}
				if bestVF == 0 || v < bestV {
					bestVF, bestV = s, v
				}
			}
			res.Rows = append(res.Rows, row)
			res.Metric("best_vf_"+name, float64(bestVF))
		}
	}
	res.Notes = notes
	return res, nil
}

// Fig10 reproduces Figure 10: the NB's share of per-thread energy for the
// same grid, split with PPEP's core/NB attribution.
func (c *Campaign) Fig10() (*Result, error) {
	traces, err := c.exploreTraces()
	if err != nil {
		return nil, err
	}
	m := c.pgModels()
	res := &Result{
		ID:     "fig10",
		Title:  "NB share of per-thread energy",
		Header: []string{"run", "state", "NB ratio"},
	}
	states := c.Table.States()
	perBench := map[string][]float64{}
	for _, num := range exploreBenches {
		for _, n := range exploreModes {
			name := fmt.Sprintf("%s x%d", num, n)
			tr, ok := traces[name]
			if !ok {
				continue
			}
			agg := aggregateInterval(tr)
			rep := new(core.Report)
			if err := m.AnalyzeInto(agg, rep); err != nil {
				return nil, err
			}
			for i := len(states) - 1; i >= 0; i-- {
				s := states[i]
				proj := rep.At(s)
				split := m.SplitDetail(agg, proj)
				// Energy ratio per unit work equals the power ratio at
				// fixed IPS; NB energy share grows at low VF because
				// execution stretches while NB power holds.
				nbShare := 0.0
				if t := split.TotalW(); t > 0 {
					nbShare = split.NBW().Per(t)
				}
				res.AddRow(name, s.String(), pct(nbShare))
				perBench[num] = append(perBench[num], nbShare)
			}
		}
	}
	for _, num := range exploreBenches {
		vals := perBench[num]
		if len(vals) == 0 {
			continue
		}
		var sum, minv float64
		minv = vals[0]
		for _, v := range vals {
			sum += v
			if v < minv {
				minv = v
			}
		}
		res.Metric("avg_share_"+num, sum/float64(len(vals)))
		res.Metric("min_share_"+num, minv)
	}
	res.Notes = append(res.Notes,
		"paper: memory-bound ≈60% average (min 45%); CPU-bound ≈25% average (min 10%)")
	return res, nil
}

// Fig11 reproduces Figure 11: the NB DVFS what-if. For each run the best
// energy with NB scaling is compared against the best without (a), and
// the speedup achievable at similar energy versus the core-VF1/NB-high
// baseline (b). The paper's exact assumptions are applied to PPEP's
// estimates (idle −40%, dynamic −36%, leading loads +50%).
func (c *Campaign) Fig11() (*Result, error) {
	traces, err := c.exploreTraces()
	if err != nil {
		return nil, err
	}
	m := c.pgModels()
	res := &Result{
		ID:     "fig11",
		Title:  "NB DVFS what-if: energy saving and speedup",
		Header: []string{"run", "energy saving", "speedup @ ~same energy"},
	}
	var savings, speedups []float64
	for _, num := range exploreBenches {
		for _, n := range exploreModes {
			name := fmt.Sprintf("%s x%d", num, n)
			tr, ok := traces[name]
			if !ok {
				continue
			}
			agg := aggregateInterval(tr)
			rep := new(core.Report)
			if err := m.AnalyzeInto(agg, rep); err != nil {
				return nil, err
			}
			pts := dvfs.NBWhatIf(m, agg, rep, dvfs.PaperNBAssumptions())
			saving := dvfs.BestEnergySaving(pts)
			speedup := dvfs.BestSpeedupAtEnergy(pts, 0.05)
			res.AddRow(name, pct(saving), fmt.Sprintf("%.2f×", speedup))
			res.Metric("saving_"+name, saving)
			res.Metric("speedup_"+name, speedup)
			savings = append(savings, saving)
			speedups = append(speedups, speedup)
		}
	}
	if len(savings) > 0 {
		var s, p float64
		for i := range savings {
			s += savings[i]
			p += speedups[i]
		}
		res.AddRow("AVG", pct(s/float64(len(savings))), fmt.Sprintf("%.2f×", p/float64(len(speedups))))
		res.Metric("avg_saving", s/float64(len(savings)))
		res.Metric("avg_speedup", p/float64(len(speedups)))
	}
	res.Notes = append(res.Notes,
		"paper: average 20.4% energy saving or 1.37× speedup; milc x1..x4 = 26/23/21/20%, sjeng = 25/19/16/14%")
	return res, nil
}

// aggregateInterval folds a whole trace into one synthetic interval with
// run-average rates — the stable input for run-level what-if analysis.
func aggregateInterval(tr *trace.Trace) trace.Interval {
	if len(tr.Intervals) == 0 {
		return trace.Interval{}
	}
	first := tr.Intervals[0]
	agg := trace.Interval{
		PerCoreVF: first.PerCoreVF,
		Counters:  make([]arch.EventVec, len(first.Counters)),
		Busy:      make([]bool, len(first.Busy)),
	}
	var tempSum float64
	var powerSum float64
	for _, iv := range tr.Intervals {
		agg.DurS += iv.DurS
		tempSum += iv.TempK * iv.DurS
		powerSum += iv.MeasPowerW * iv.DurS
		for ci := range iv.Counters {
			agg.Counters[ci].Add(iv.Counters[ci])
			if iv.Busy[ci] {
				agg.Busy[ci] = true
			}
		}
	}
	agg.TimeS = tr.Intervals[len(tr.Intervals)-1].TimeS
	if agg.DurS > 0 {
		agg.TempK = tempSum / agg.DurS
		agg.MeasPowerW = powerSum / agg.DurS
	}
	return agg
}
