package experiments

import (
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/dvfs"
	"ppep/internal/fxsim"
	"ppep/internal/workload"
)

// GovernorComparison is an extension experiment: it races the PPEP-based
// proactive governors against a static pin and a Linux-ondemand-style
// reactive baseline on a fixed time window, reporting energy,
// throughput, and energy per instruction. It substantiates the paper's
// premise that one-step prediction beats reactive search not just for
// capping but for routine energy/EDP management.
func (c *Campaign) GovernorComparison() (*Result, error) {
	if c.Models == nil {
		return nil, fmt.Errorf("experiments: campaign has no trained models")
	}
	res := &Result{
		ID:     "gov-compare",
		Title:  "Governor comparison (433.milc ×2 + 458.sjeng ×2, 20 s)",
		Header: []string{"governor", "energy (J)", "Ginst", "nJ/inst"},
	}

	type entry struct {
		name string
		mk   func() (fxsim.Controller, *[]dvfs.GovStep)
	}
	entries := []entry{
		{"static VF5", func() (fxsim.Controller, *[]dvfs.GovStep) {
			g := &dvfs.StaticGovernor{State: arch.VF5}
			return g, &g.History
		}},
		{"static VF1", func() (fxsim.Controller, *[]dvfs.GovStep) {
			g := &dvfs.StaticGovernor{State: arch.VF1}
			return g, &g.History
		}},
		{"ondemand", func() (fxsim.Controller, *[]dvfs.GovStep) {
			g := &dvfs.OnDemandGovernor{}
			return g, &g.History
		}},
		{"ppep-energy", func() (fxsim.Controller, *[]dvfs.GovStep) {
			g := &dvfs.PPEPGovernor{Models: c.Models, Pick: dvfs.EnergyOptimal}
			return g, &g.History
		}},
		{"ppep-edp", func() (fxsim.Controller, *[]dvfs.GovStep) {
			g := &dvfs.PPEPGovernor{Models: c.Models, Pick: dvfs.EDPOptimal}
			return g, &g.History
		}},
	}

	mix := workload.Run{Name: "govmix", Suite: "MIX", Members: []workload.Member{
		{Bench: workload.SPECByNumber("433"), Threads: 2},
		{Bench: workload.SPECByNumber("458"), Threads: 2},
	}}

	for _, e := range entries {
		ctl, hist := e.mk()
		cfg := c.ChipConfig()
		cfg.PowerGating = true
		cfg.SensorSeed = seedOf("gov-"+e.name, c.Table.Top())
		chip := fxsim.New(cfg)
		if _, err := chip.Collect(scaleRun(mix, c.opts.Scale), fxsim.RunOpts{
			VF: arch.VF5, MaxTimeS: 20, Restart: true, WarmTempK: 318,
			Controller: ctl, Placement: fxsim.PlaceScatter,
		}); err != nil {
			return nil, err
		}
		energy := dvfs.EnergyJ(*hist, 0.2)
		inst := dvfs.Instructions(*hist)
		jpi := 0.0
		if inst > 0 {
			jpi = float64(energy) / inst * 1e9
		}
		res.AddRow(e.name, f2(float64(energy)), f2(inst/1e9), f2(jpi))
		key := e.name
		res.Metric("jpi_"+key, jpi)
		res.Metric("ginst_"+key, inst/1e9)
	}
	res.Notes = append(res.Notes,
		"the PPEP energy governor should match static-VF1 efficiency while ondemand chases utilization to the top state")
	return res, nil
}
