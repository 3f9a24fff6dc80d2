// Daemon example: PPEP exactly as deployed — sampling the hardware
// through the register-level MSR and hwmon interfaces (not the
// simulator's convenience APIs), rotating the two six-event counter
// groups every 20 ms, and steering the chip to the predicted EDP-optimal
// state each 200 ms interval.
package main

import (
	"fmt"
	"log"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
	"ppep/internal/dvfs"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
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

	// Section IV-D: with power gating enabled, PPEP swaps in the
	// decomposition-based idle model.
	models := *camp.Models
	models.PGEnabled = true

	cfg := fxsim.DefaultFX8320Config()
	cfg.PowerGating = true
	chip := fxsim.New(cfg)
	chip.SetTempK(318)

	// Bind two milc instances; the daemon never touches this directly —
	// it only sees what the MSRs and the diode expose.
	run := workload.MultiInstance("433", 2)
	for i := range run.Members {
		b := *run.Members[i].Bench
		b.Instructions = 1e12
		run.Members[i].Bench = &b
	}
	if _, err := chip.PlaceRun(run, fxsim.PlaceScatter, true); err != nil {
		log.Fatal(err)
	}

	policy := daemon.PolicyFunc(func(ch *fxsim.Chip, iv trace.Interval, rep *core.Report) {
		// a rejected P-state request leaves the previous state; retried next tick
		_ = ch.SetAllPStates(dvfs.EDPOptimal(rep))
	})
	d, err := daemon.AttachOpts(chip, &models, policy, daemon.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nrunning the daemon for 20 intervals (4 s) with the EDP policy:")
	if err := d.RunIntervals(20); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-6s %-6s %10s %10s %12s\n", "t(s)", "VF", "meas (W)", "est (W)", "pred EDP-opt")
	records := d.Records()
	for i, rec := range records {
		if i%4 != 0 {
			continue
		}
		fmt.Printf("%-6.1f %-6v %10.1f %10.1f %12v\n",
			rec.Interval.TimeS, rec.Interval.VF(), rec.Interval.MeasPowerW,
			rec.Report.Current().ChipW, dvfs.EDPOptimal(rec.Report))
	}
	last := records[len(records)-1].Interval
	fmt.Printf("\nfinal state: %v at %.1f W", last.VF(), last.MeasPowerW)
	if last.VF() != arch.VF5 {
		fmt.Printf(" — the policy moved the chip off the top state\n")
	} else {
		fmt.Println()
	}
}
