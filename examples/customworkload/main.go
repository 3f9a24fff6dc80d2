// Custom workload: the adopter workflow. Describe your own application
// as a phase-based JSON profile, load it, run it on the simulated
// platform, and let PPEP pick its energy-optimal operating point — no
// recompilation, no built-in suite involved.
package main

import (
	"fmt"
	"log"
	"strings"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/dvfs"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/workload"
)

// profileJSON describes a hypothetical request-processing service: a hot
// parsing loop alternating with a memory-heavy lookup phase.
const profileJSON = `{
  "name": "request-service",
  "class": "balanced",
  "instructions": 6e9,
  "loops": 3,
  "phases": [
    {"name": "parse", "weight": 0.6, "base_cpi": 0.55, "mlp": 1.2,
     "l3_miss_ratio": 0.2, "noise": 0.05,
     "uops_per_inst": 1.35, "ic_per_inst": 0.3, "dc_per_inst": 0.45,
     "l2req_per_inst": 0.012, "branch_per_inst": 0.2,
     "mispred_per_inst": 0.01, "l2miss_per_inst": 0.002},
    {"name": "lookup", "weight": 0.4, "base_cpi": 0.8, "mlp": 2.5,
     "l3_miss_ratio": 0.7, "noise": 0.08,
     "uops_per_inst": 1.25, "ic_per_inst": 0.22, "dc_per_inst": 0.55,
     "l2req_per_inst": 0.06, "branch_per_inst": 0.12,
     "mispred_per_inst": 0.004, "l2miss_per_inst": 0.03}
  ]
}`

func main() {
	bench, err := workload.LoadProfile(strings.NewReader(profileJSON))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %q: %d phases, %.0fG instructions\n",
		bench.Name, len(bench.Phases), bench.Instructions/1e9)

	fmt.Println("training PPEP models...")
	camp, err := experiments.NewFXCampaign(experiments.Options{
		Scale: 0.05, MaxRunsPerSuite: 6,
	})
	if err != nil {
		log.Fatal(err)
	}

	chip := fxsim.New(fxsim.DefaultFX8320Config())
	run := workload.Run{Name: bench.Name, Suite: "custom",
		Members: []workload.Member{{Bench: bench, Threads: 2}}}
	tr, err := chip.Collect(run, fxsim.RunOpts{
		VF: arch.VF5, WarmTempK: 318, Placement: fxsim.PlaceScatter,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %s ×2 threads at VF5: %.1fs, %.1fW average\n\n",
		bench.Name, tr.DurationS(), tr.AvgMeasPowerW())

	// PPEP's verdict, interval by interval (the phases alternate, so the
	// optimum can move between parse- and lookup-dominated windows).
	counts := map[arch.VFState]int{}
	for _, iv := range tr.Intervals {
		rep := new(core.Report)
		if err := camp.Models.AnalyzeInto(iv, rep); err != nil {
			continue
		}
		counts[dvfs.EnergyOptimal(rep)]++
	}
	fmt.Println("energy-optimal state per 200ms interval:")
	for _, s := range camp.Table.States() {
		if counts[s] > 0 {
			fmt.Printf("  %v: %d intervals\n", s, counts[s])
		}
	}
}
