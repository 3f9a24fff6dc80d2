package experiments

import (
	"fmt"
	"sort"

	"ppep/internal/core"
	"ppep/internal/stats"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// Outliers reproduces the paper's outlier analysis (Section IV-B2: "we do
// see a few outliers, with a maximum error up to 49%... DC and IS from
// NPB, and dedup from PARSEC... rapid phase changes... may cause errors
// because of our performance counter multiplexing"). It ranks runs by
// their cross-validated dynamic power error and correlates the worst
// against each run's phase-change score.
func (c *Campaign) Outliers() (*Result, error) {
	folds, err := c.crossValidate()
	if err != nil {
		return nil, err
	}
	type row struct {
		name  string
		aae   float64
		max   float64
		phase float64
	}
	byName := map[string]*row{}
	for _, fm := range folds {
		for _, rt := range c.Runs {
			if !fm.testNames[rt.Name] || rt.VF != c.Table.Top() {
				continue
			}
			var errs []float64
			v := c.Table.Point(rt.VF).Voltage
			for _, iv := range core.SteadyIntervals(rt.Trace) {
				idleEst := fm.models.Idle.Estimate(v, units.Kelvin(iv.TempK))
				measDyn := iv.MeasPowerW - float64(idleEst)
				if measDyn <= 0.5 {
					continue
				}
				total := iv.TotalRates()
				estDyn := fm.models.Dyn.EstimateRates(total.PowerEvents(), v)
				errs = append(errs, stats.AbsPctErr(float64(estDyn), measDyn))
			}
			if len(errs) == 0 {
				continue
			}
			s := stats.SummarizeAbsErrors(errs)
			byName[rt.Name] = &row{
				name:  rt.Name,
				aae:   s.Mean,
				max:   s.Max,
				phase: trace.PhaseChangeScore(rt.Trace),
			}
		}
	}
	if len(byName) == 0 {
		return nil, fmt.Errorf("experiments: no runs for outlier analysis")
	}
	rows := make([]*row, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].aae > rows[j].aae })

	res := &Result{
		ID:     "sec4b-outliers",
		Title:  "Dynamic power error outliers vs phase-change score (top VF)",
		Header: []string{"run", "AAE", "max err", "phase score"},
	}
	top := rows
	if len(top) > 10 {
		top = rows[:10]
	}
	for _, r := range top {
		res.AddRow(r.name, pct(r.aae), pct(r.max), f2(r.phase))
	}
	// Correlation between error and phase volatility across all runs.
	var errsAll, phases []float64
	for _, r := range rows {
		errsAll = append(errsAll, r.aae)
		phases = append(phases, r.phase)
	}
	corr := stats.Pearson(phases, errsAll)
	res.Metric("phase_error_corr", corr)
	res.Metric("worst_aae", rows[0].aae)
	res.Metric("worst_max", rows[0].max)
	res.Notes = append(res.Notes,
		"paper: max error up to 49%, concentrated in dedup, IS, and DC — rapid phase changes vs counter multiplexing")
	return res, nil
}
