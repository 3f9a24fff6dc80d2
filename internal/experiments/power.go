package experiments

import (
	"fmt"
	"sort"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/core/dynpower"
	"ppep/internal/core/idlepower"
	"ppep/internal/stats"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// foldModels is one cross-validation fold's trained model set plus its
// held-out test runs.
type foldModels struct {
	models    *core.Models
	testNames map[string]bool
}

// cvFolds is the paper's cross-validation fold count.
const cvFolds = 4

// crossValidate returns the paper's 4-fold split over benchmark
// combinations, trained once per campaign (the campaign is not mutated
// after it is built) and shared by every harness that scores held-out
// runs. The returned folds are read-only.
func (c *Campaign) crossValidate() ([]foldModels, error) {
	c.foldsOnce.Do(func() { c.folds, c.foldsErr = c.trainFolds() })
	return c.folds, c.foldsErr
}

// trainFolds trains the cross-validation folds: the dynamic model is
// retrained on each fold's training runs; the idle model is shared (it is
// benchmark-independent).
func (c *Campaign) trainFolds() ([]foldModels, error) {
	names := make([]string, 0, len(c.ByName))
	for n := range c.ByName {
		names = append(names, n)
	}
	sort.Strings(names)
	idle, err := idlepower.TrainFromTraces(c.Idle, c.Table)
	if err != nil {
		return nil, err
	}
	folds := stats.KFold(len(names), cvFolds, 2014)
	var out []foldModels
	for _, fold := range folds {
		trainNames := map[string]bool{}
		for _, i := range fold.Train {
			trainNames[names[i]] = true
		}
		var runs []core.RunTrace
		for _, rt := range c.Runs {
			if trainNames[rt.Name] {
				runs = append(runs, rt)
			}
		}
		samples := core.DynSamples(runs, idle, c.Table)
		dyn, err := dynpower.Train(samples, c.Table.Point(c.Table.Top()).Voltage)
		if err != nil {
			return nil, fmt.Errorf("experiments: fold training: %w", err)
		}
		fm := foldModels{
			models:    &core.Models{Table: c.Table, Idle: idle, Dyn: dyn},
			testNames: map[string]bool{},
		}
		for _, i := range fold.Test {
			fm.testNames[names[i]] = true
		}
		out = append(out, fm)
	}
	return out, nil
}

// suiteKey buckets a run into the paper's Figure 2 labels.
var suiteOrder = []string{"SPE", "PAR", "NPB", "ALL"}

// Fig2 reproduces Figure 2: the 4-fold cross-validation error of the
// dynamic power model (a) and the chip power model (b), per suite and VF
// state. The returned pair is (fig2a, fig2b).
func (c *Campaign) Fig2() (*Result, *Result, error) {
	folds, err := c.crossValidate()
	if err != nil {
		return nil, nil, err
	}
	// per (suite, VF): per-run AAEs.
	dynErrs := map[string]map[arch.VFState][]float64{}
	chipErrs := map[string]map[arch.VFState][]float64{}
	add := func(m map[string]map[arch.VFState][]float64, suite string, vf arch.VFState, v float64) {
		if m[suite] == nil {
			m[suite] = map[arch.VFState][]float64{}
		}
		m[suite][vf] = append(m[suite][vf], v)
	}
	for _, fm := range folds {
		for _, rt := range c.Runs {
			if !fm.testNames[rt.Name] {
				continue
			}
			var dErrs, cErrs []float64
			v := c.Table.Point(rt.VF).Voltage
			for _, iv := range core.SteadyIntervals(rt.Trace) {
				idleEst := fm.models.Idle.Estimate(v, units.Kelvin(iv.TempK))
				measDyn := iv.MeasPowerW - float64(idleEst)
				rates := iv.TotalRates()
				estDyn := fm.models.Dyn.EstimateRates(rates.PowerEvents(), v)
				if measDyn > 0.5 { // skip idle-dominated slivers
					dErrs = append(dErrs, stats.AbsPctErr(float64(estDyn), measDyn))
				}
				cErrs = append(cErrs, stats.AbsPctErr(float64(idleEst+estDyn), iv.MeasPowerW))
			}
			if len(dErrs) > 0 {
				aae := stats.Mean(dErrs)
				add(dynErrs, rt.Suite, rt.VF, aae)
				add(dynErrs, "ALL", rt.VF, aae)
			}
			if len(cErrs) > 0 {
				aae := stats.Mean(cErrs)
				add(chipErrs, rt.Suite, rt.VF, aae)
				add(chipErrs, "ALL", rt.VF, aae)
			}
		}
	}
	a := c.errorTable("fig2a", "Dynamic power model validation error (4-fold CV)", dynErrs)
	b := c.errorTable("fig2b", "Chip power model validation error (4-fold CV)", chipErrs)
	a.Notes = append(a.Notes, "paper: 10.6% average AAE, SD 5.8%; VF5..VF1 = 8.9/8.4/9.5/12.0/14.4%")
	b.Notes = append(b.Notes, "paper: 4.6% average AAE, SD 2.8%")
	return a, b, nil
}

// errorTable renders per-(suite, VF) error summaries in Figure 2's layout.
func (c *Campaign) errorTable(id, title string, errs map[string]map[arch.VFState][]float64) *Result {
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"state", "suite", "avg AAE", "SD"},
	}
	states := c.Table.States()
	var all []float64
	for i := len(states) - 1; i >= 0; i-- {
		vf := states[i]
		for _, suite := range suiteOrder {
			vals := errs[suite][vf]
			if len(vals) == 0 {
				continue
			}
			s := stats.SummarizeAbsErrors(vals)
			res.AddRow(vf.String(), suite, pct(s.Mean), pct(s.SD))
			if suite == "ALL" {
				res.Metric("aae_"+vf.String(), s.Mean)
				all = append(all, vals...)
			}
		}
	}
	total := stats.SummarizeAbsErrors(all)
	res.Metric("avg_aae", total.Mean)
	res.Metric("avg_sd", total.SD)
	return res
}

// Fig3 reproduces Figure 3: power prediction across VF state pairs.
// For each pair VFi→VFj, each test run's average power at VFj is
// predicted from its VFi trace and compared with the measured average.
// Returns (fig3a dynamic, fig3b chip).
func (c *Campaign) Fig3() (*Result, *Result, error) {
	folds, err := c.crossValidate()
	if err != nil {
		return nil, nil, err
	}
	type pair struct{ from, to arch.VFState }
	dynErrs := map[pair][]float64{}
	chipErrs := map[pair][]float64{}

	for _, fm := range folds {
		// Iterate test runs in sorted order: the per-pair error slices
		// feed FP means, so fill order must not follow map order.
		names := make([]string, 0, len(fm.testNames))
		for name := range fm.testNames {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			traces := c.ByName[name]
			for _, from := range c.Table.States() {
				src := traces[from]
				if src == nil {
					continue
				}
				// Average predictions from every interval of the source
				// trace, as the paper compares run-average power.
				predChip := map[arch.VFState]*stats.Running{}
				predDyn := map[arch.VFState]*stats.Running{}
				for _, to := range c.Table.States() {
					predChip[to] = &stats.Running{}
					predDyn[to] = &stats.Running{}
				}
				for _, iv := range core.SteadyIntervals(src) {
					rep := new(core.Report)
					if err := fm.models.AnalyzeInto(iv, rep); err != nil {
						continue
					}
					for _, to := range c.Table.States() {
						proj := rep.At(to)
						predChip[to].Add(float64(proj.ChipW))
						predDyn[to].Add(float64(proj.DynW))
					}
				}
				for _, to := range c.Table.States() {
					dst := traces[to]
					if dst == nil || predChip[to].N() == 0 {
						continue
					}
					measChip := dst.AvgMeasPowerW()
					measDyn := measDynAvg(fm.models, dst, c.Table)
					p := pair{from, to}
					chipErrs[p] = append(chipErrs[p], stats.AbsPctErr(predChip[to].Mean(), measChip))
					if measDyn > 0.5 {
						dynErrs[p] = append(dynErrs[p], stats.AbsPctErr(predDyn[to].Mean(), measDyn))
					}
				}
			}
		}
	}
	mk := func(id, title string, m map[pair][]float64) *Result {
		res := &Result{
			ID:     id,
			Title:  title,
			Header: []string{"pair", "avg AAE", "SD", "runs"},
		}
		var all []float64
		states := c.Table.States()
		for i := len(states) - 1; i >= 0; i-- {
			for j := len(states) - 1; j >= 0; j-- {
				p := pair{states[i], states[j]}
				vals := m[p]
				if len(vals) == 0 {
					continue
				}
				s := stats.SummarizeAbsErrors(vals)
				res.AddRow(fmt.Sprintf("%v→%v", p.from, p.to), pct(s.Mean), pct(s.SD), fmt.Sprint(s.N))
				all = append(all, vals...)
			}
		}
		t := stats.SummarizeAbsErrors(all)
		res.Metric("avg_aae", t.Mean)
		res.Metric("avg_sd", t.SD)
		return res
	}
	a := mk("fig3a", "Dynamic power prediction error across VF states", dynErrs)
	b := mk("fig3b", "Chip power prediction error across VF states", chipErrs)
	a.Notes = append(a.Notes, "paper: 8.3% overall average, pairs 5.5–13.7%")
	b.Notes = append(b.Notes, "paper: 4.2% overall average, pairs 2.7–6.3%")
	return a, b, nil
}

// measDynAvg is a run's average measured dynamic power (measured minus
// the idle model's estimate).
func measDynAvg(m *core.Models, tr *trace.Trace, tbl arch.VFTable) float64 {
	var r stats.Running
	for _, iv := range core.SteadyIntervals(tr) {
		v := tbl.Point(iv.VF()).Voltage
		r.Add(iv.MeasPowerW - float64(m.Idle.Estimate(v, units.Kelvin(iv.TempK))))
	}
	return r.Mean()
}
