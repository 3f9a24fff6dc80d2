// Energy-delay space exploration: the Section V-C1 study. Runs
// memory-bound 433.milc and CPU-bound 458.sjeng with 1–4 concurrent
// instances, and uses PPEP to project per-thread energy and EDP at every
// VF state — showing how background workloads move the optimum.
package main

import (
	"fmt"
	"log"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/dvfs"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/workload"
)

func main() {
	fmt.Println("training PPEP models...")
	camp, err := experiments.NewFXCampaign(experiments.Options{
		Scale: 0.05, MaxRunsPerSuite: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	models := camp.Models

	for _, num := range []string{"433", "458"} {
		for _, instances := range []int{1, 4} {
			run := workload.MultiInstance(num, instances)
			for i := range run.Members {
				b := *run.Members[i].Bench
				b.Instructions = 4e9
				run.Members[i].Bench = &b
			}
			cfg := fxsim.DefaultFX8320Config()
			cfg.PowerGating = true
			chip := fxsim.New(cfg)
			tr, err := chip.Collect(run, fxsim.RunOpts{
				VF: arch.VF5, WarmTempK: 320, Placement: fxsim.PlaceScatter,
			})
			if err != nil {
				log.Fatal(err)
			}
			iv := tr.Intervals[len(tr.Intervals)/2]
			rep := new(core.Report)
			if err := models.AnalyzeInto(iv, rep); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n%s — energy-delay space (from one %v interval):\n", run.Name, rep.MeasuredVF)
			fmt.Printf("%-6s %9s %12s %12s %12s\n", "state", "chip W", "nJ/inst", "ns/inst", "EDP")
			for _, p := range dvfs.EDSpace(rep) {
				fmt.Printf("%-6v %9.1f %12.2f %12.3f %12.3g\n",
					p.VF, p.PowerW, p.JPerInst*1e9, p.SPerInst*1e9, p.EDP)
			}
			fmt.Printf("energy-optimal: %v   EDP-optimal: %v\n",
				dvfs.EnergyOptimal(rep), dvfs.EDPOptimal(rep))
		}
	}
}
