// Command ppep-fleet runs the sharded parallel fleet engine: N
// independent simulated PPEP nodes advancing in lockstep decision
// intervals over a bounded worker pool, with the fleet state published
// as immutable snapshots (internal/fleet, docs/FLEET.md).
//
// Throughput smoke (the shape `make fleet-smoke` uses):
//
//	ppep-fleet -nodes 64 -seconds 2 -mix mixed -check-invariance -min-mticks 0.05
//
// Fleet prediction surface (trains slim models, then reports the
// fleet-total predicted watts at every VF state):
//
//	ppep-fleet -nodes 256 -seconds 5 -mix mixed -models
//
// -min-mticks and -check-invariance turn the run into an assertion:
// the process exits 1 if throughput is below the floor or per-node
// fingerprints differ between the parallel run and a workers=1 rerun,
// so CI can gate on both performance and determinism.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fleet"
)

// flags holds the command-line values validate checks.
type flags struct {
	nodes     int
	seconds   float64
	minMticks float64
}

// validate checks the flags and returns the number of decision
// intervals -seconds spans (at least one). NaN fails every comparison,
// so each bound is written so that it rejects NaN too.
func (f flags) validate() (int, error) {
	if f.nodes < 1 {
		return 0, fmt.Errorf("ppep-fleet: -nodes %d must be positive", f.nodes)
	}
	n := f.seconds * 1000 / arch.DecisionIntervalMS
	if !(f.seconds > 0 && n < math.MaxInt) {
		return 0, fmt.Errorf("ppep-fleet: -seconds %v must be positive and finite, its interval count an int", f.seconds)
	}
	if !(f.minMticks >= 0) || math.IsInf(f.minMticks, 1) {
		return 0, fmt.Errorf("ppep-fleet: -min-mticks %v must be non-negative and finite", f.minMticks)
	}
	return max(1, int(n)), nil
}

func main() {
	var (
		nodes     = flag.Int("nodes", 256, "fleet size")
		workers   = flag.Int("workers", 0, "pool width (0 = GOMAXPROCS)")
		seconds   = flag.Float64("seconds", 1, "simulated seconds to advance")
		mixName   = flag.String("mix", "mixed", "workload-mix preset (steady|jittered|mixed)")
		seed      = flag.Int64("seed", 42, "fleet identity seed")
		useModels = flag.Bool("models", false, "train slim PPEP models and publish per-VF predictions")
		minMticks = flag.Float64("min-mticks", 0, "exit 1 if throughput is below this many Mticks/s (0 = no assertion)")
		checkInv  = flag.Bool("check-invariance", false, "rerun at workers=1 and exit 1 unless per-node fingerprints match")
	)
	flag.Parse()

	mix, err := fleet.ParseMix(*mixName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppep-fleet:", err)
		os.Exit(2)
	}
	intervals, err := flags{nodes: *nodes, seconds: *seconds, minMticks: *minMticks}.validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	var models *core.Models
	if *useModels {
		fmt.Println("training slim models...")
		if models, err = fleet.SlimModels(); err != nil {
			fmt.Fprintln(os.Stderr, "ppep-fleet:", err)
			os.Exit(1)
		}
	}

	cfg := fleet.Config{
		Nodes: *nodes, Workers: *workers,
		Seed: *seed, Mix: mix, Models: models, IdealSensor: true,
	}
	e, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppep-fleet:", err)
		os.Exit(1)
	}

	start := time.Now()
	e.AdvanceN(intervals)
	wall := time.Since(start)

	s := e.Snapshot()
	simS := s.TimeS
	ticks := float64(*nodes) * float64(intervals) * arch.DecisionIntervalMS
	mticks := ticks / 1e6 / wall.Seconds()
	xreal := simS / wall.Seconds()

	fmt.Printf("fleet: %d nodes, %d workers, mix=%s, %d intervals (%.1f simulated s)\n",
		e.Nodes(), e.Workers(), mix, intervals, simS)
	fmt.Printf("wall %.3fs  |  %.2f Mticks/s  |  %.1fx real time (fleet lockstep)\n",
		wall.Seconds(), mticks, xreal)
	fmt.Printf("fleet power: measured %.0f W, true %.0f W, %d busy cores\n",
		s.TotalMeasW, s.TotalTrueW, s.BusyCores)
	if models != nil {
		fmt.Printf("predicted fleet watts per VF (%d/%d nodes analyzed):\n", s.AnalyzedNodes, e.Nodes())
		for v := 1; v <= s.NVF; v++ {
			fmt.Printf("  VF%d: %8.0f W\n", v, float64(s.TotalPredAt(arch.VFState(v))))
		}
	}

	failed := false
	if *minMticks > 0 && mticks < *minMticks {
		fmt.Fprintf(os.Stderr, "ppep-fleet: %.2f Mticks/s below floor %.2f\n", mticks, *minMticks)
		failed = true
	}
	if *checkInv {
		refCfg := cfg
		refCfg.Workers = 1
		ref, err := fleet.New(refCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppep-fleet:", err)
			os.Exit(1)
		}
		ref.AdvanceN(intervals)
		mismatch := 0
		for i := 0; i < e.Nodes(); i++ {
			if e.Fingerprint(i) != ref.Fingerprint(i) {
				mismatch++
			}
		}
		if mismatch > 0 {
			fmt.Fprintf(os.Stderr, "ppep-fleet: %d/%d node fingerprints differ from the workers=1 reference\n",
				mismatch, e.Nodes())
			failed = true
		} else {
			fmt.Printf("invariance: all %d node fingerprints match the workers=1 reference\n", e.Nodes())
		}
	}
	if failed {
		os.Exit(1)
	}
}
