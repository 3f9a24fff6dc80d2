package experiments

import (
	"fmt"
	"sort"

	"ppep/internal/arch"
	"ppep/internal/core/energy"
	"ppep/internal/stats"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// Fig6 reproduces Figure 6: next-interval chip energy prediction error at
// the top VF state for every SPEC combination, comparing PPEP against the
// Green Governors baseline; plus the VF4..VF1 averages reported in the
// text (3.3/3.7/4.0/4.9%).
func (c *Campaign) Fig6() (*Result, error) {
	folds, err := c.crossValidate()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig6",
		Title:  "Next-interval energy prediction error (SPEC combos, top VF)",
		Header: []string{"combo", "PPEP AAE", "GreenGov AAE"},
	}
	top := c.Table.Top()

	type row struct {
		name     string
		ppep, gg float64
	}
	var rows []row
	var ppepAll, ggAll []float64
	perVF := map[arch.VFState][]float64{}

	for _, fm := range folds {
		models := fm.models
		for _, rt := range c.Runs {
			if !fm.testNames[rt.Name] || rt.Suite != "SPE" {
				continue
			}
			ppepEst := func(iv trace.Interval) units.Watts {
				w, err := models.EstimateChipW(iv)
				if err != nil {
					return 0
				}
				return w
			}
			errs := energy.NextIntervalErrors(rt.Trace, ppepEst)
			if len(errs) == 0 {
				continue
			}
			aae := stats.Mean(errs)
			perVF[rt.VF] = append(perVF[rt.VF], aae)
			if rt.VF != top {
				continue
			}
			ppepAll = append(ppepAll, aae)
			var ggAAE float64
			if c.GG != nil {
				ggEst := func(iv trace.Interval) units.Watts { return c.GG.EstimateChipW(iv, c.Table) }
				ggErrs := energy.NextIntervalErrors(rt.Trace, ggEst)
				ggAAE = stats.Mean(ggErrs)
				ggAll = append(ggAll, ggAAE)
			}
			rows = append(rows, row{rt.Name, aae, ggAAE})
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: no SPEC runs at top VF for Fig 6")
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		res.AddRow(r.name, pct(r.ppep), pct(r.gg))
	}
	res.AddRow("AVG", pct(stats.Mean(ppepAll)), pct(stats.Mean(ggAll)))
	res.Metric("ppep_avg", stats.Mean(ppepAll))
	res.Metric("gg_avg", stats.Mean(ggAll))
	// Text numbers: averages at the lower states.
	states := c.Table.States()
	for i := len(states) - 2; i >= 0; i-- {
		vf := states[i]
		if vals := perVF[vf]; len(vals) > 0 {
			res.Metric("ppep_avg_"+vf.String(), stats.Mean(vals))
		}
	}
	res.Notes = append(res.Notes,
		"paper: PPEP 3.6% vs Green Governors ≈7% at VF5; VF4..VF1 = 3.3/3.7/4.0/4.9%")
	return res, nil
}
