// North-bridge DVFS what-if: the Section V-C2 study. Applies the paper's
// assumptions for a hypothetical low NB state (idle −40%, dynamic −36%,
// leading loads +50%) to PPEP's core/NB power split and reports the extra
// energy saving and the speedup achievable at similar energy.
package main

import (
	"fmt"
	"log"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/dvfs"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

func main() {
	fmt.Println("training PPEP models (with power-gating decomposition)...")
	camp, err := experiments.NewFXCampaign(experiments.Options{
		Scale: 0.05, MaxRunsPerSuite: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Section V runs with power gating enabled.
	models := *camp.Models
	models.PGEnabled = true

	assume := dvfs.PaperNBAssumptions()
	fmt.Printf("assumptions: NB idle −%.0f%%, NB dynamic −%.0f%%, leading loads ×%.1f\n",
		100*assume.IdleDropFrac, 100*assume.DynDropFrac, assume.LLInflate)

	for _, num := range []string{"433", "458"} {
		for _, instances := range []int{1, 2, 3, 4} {
			run := workload.MultiInstance(num, instances)
			for i := range run.Members {
				b := *run.Members[i].Bench
				b.Instructions = 3e9
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
			agg := aggregate(tr)
			rep := new(core.Report)
			if err := models.AnalyzeInto(agg, rep); err != nil {
				log.Fatal(err)
			}
			pts := dvfs.NBWhatIf(&models, agg, rep, assume)
			saving := dvfs.BestEnergySaving(pts)
			speedup := dvfs.BestSpeedupAtEnergy(pts, 0.05)
			fmt.Printf("%-8s energy saving %5.1f%%   speedup at ~same energy %.2f×\n",
				run.Name, 100*saving, speedup)
		}
	}
	fmt.Println("\npaper: up to 20.4% average saving or 1.37× average speedup")
}

// aggregate folds a trace into one run-average interval.
func aggregate(tr *trace.Trace) trace.Interval {
	first := tr.Intervals[0]
	agg := trace.Interval{
		PerCoreVF: first.PerCoreVF,
		Counters:  make([]arch.EventVec, len(first.Counters)),
		Busy:      make([]bool, len(first.Busy)),
	}
	var tempSum float64
	for _, iv := range tr.Intervals {
		agg.DurS += iv.DurS
		tempSum += iv.TempK * iv.DurS
		for ci := range iv.Counters {
			agg.Counters[ci].Add(iv.Counters[ci])
			if iv.Busy[ci] {
				agg.Busy[ci] = true
			}
		}
	}
	if agg.DurS > 0 {
		agg.TempK = tempSum / agg.DurS
	}
	return agg
}
