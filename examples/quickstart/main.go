// Quickstart: build a simulated FX-8320, train the PPEP models from a
// small measurement campaign, run a workload, and print the one-step PPE
// projection for every VF state — the core of what PPEP does.
package main

import (
	"fmt"
	"log"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/workload"
)

func main() {
	// 1. One-time offline training (Section IV): a reduced campaign for
	// a quick start — scale 0.05 shrinks benchmark lengths 20×.
	fmt.Println("training PPEP models on the simulated FX-8320...")
	camp, err := experiments.NewFXCampaign(experiments.Options{
		Scale: 0.05, MaxRunsPerSuite: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	models := camp.Models
	fmt.Printf("done: α=%.2f, idle(VF5, 320K)=%.1fW\n\n",
		models.Dyn.Alpha, models.Idle.Estimate(1.320, 320))

	// 2. Run two instances of memory-bound 433.milc at VF5.
	chip := fxsim.New(fxsim.DefaultFX8320Config())
	run := workload.MultiInstance("433", 2)
	run.Members[0].Bench = shorten(run.Members[0].Bench)
	run.Members[1].Bench = run.Members[0].Bench
	tr, err := chip.Collect(run, fxsim.RunOpts{
		VF: arch.VF5, WarmTempK: 318, Placement: fxsim.PlaceScatter,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %s: %.1fs, avg measured power %.1fW\n\n",
		run.Name, tr.DurationS(), tr.AvgMeasPowerW())

	// 3. Analyze one interval: PPEP projects PPE at every VF state from
	// a single 200 ms sample — no state switching needed.
	iv := tr.Intervals[len(tr.Intervals)/2]
	rep := new(core.Report)
	if err := models.AnalyzeInto(iv, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PPE projection from one interval at %v (measured %.1fW):\n",
		rep.MeasuredVF, iv.MeasPowerW)
	fmt.Printf("%-6s %9s %9s %11s %12s\n", "state", "chip W", "idle W", "IPS", "J/interval")
	for i := len(rep.PerVF) - 1; i >= 0; i-- {
		p := rep.PerVF[i]
		fmt.Printf("%-6v %9.1f %9.1f %11.2e %12.2f\n",
			p.VF, p.ChipW, p.IdleW, p.TotalIPS, p.IntervalEnergyJ)
	}
}

// shorten trims the profile so the example finishes in seconds.
func shorten(b *workload.Benchmark) *workload.Benchmark {
	c := *b
	c.Instructions = 4e9
	return &c
}
