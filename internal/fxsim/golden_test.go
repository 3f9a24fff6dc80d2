package fxsim

import (
	"testing"

	"ppep/internal/arch"
	"ppep/internal/trace"
	"ppep/internal/tracecodec"
	"ppep/internal/workload"
)

// goldenSchemaVersion is the trace-cache schema the goldens below were
// recorded under. A model change that moves them changes what a cached
// trace holds for the same cache key, so re-baselining them must bump
// tracecodec.SchemaVersion as well, or a warm cache keeps serving traces
// of the old model.
const goldenSchemaVersion = 3

// The golden fingerprints below pin the simulator's determinism
// guarantee: for a fixed SensorSeed, every optimization of the tick loop
// must reproduce bit-identical trace.Interval sequences — counters,
// powers, temperatures, VF snapshots — across all operating modes (shared
// rail, power gating, boost, per-CU planes, restart, idle transients).
// They were last re-recorded (tracecodec.SchemaVersion 3) when the tick
// began to evaluate its jittered rates as lines in the segment position,
// fold core dynamic power per operating point, and evaluate the leakage
// temperature factor once per sensor window; TestTickDrift bounds how far
// that moved a run from the per-tick reference.
//
// If one of these fails after an intentional *behavioural* change to the
// simulator physics, re-record it, bump tracecodec.SchemaVersion and
// goldenSchemaVersion with it, and say so in the commit; a failure after
// a performance-only change is a regression.
var goldenCollect = []struct {
	name string
	want uint64
	run  func(t *testing.T) *trace.Trace
}{
	{
		name: "shared-rail 433x4 @VF3",
		want: 0x3ca5bc5829a4c237,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			chip := New(cfg)
			tr, err := chip.Collect(workload.MultiInstance("433", 4),
				RunOpts{VF: arch.VF3, WarmTempK: 315, Placement: PlaceScatter})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	},
	{
		name: "power-gated 433x1 @VF2",
		want: 0x705bdd189672ba1e,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.PowerGating = true
			cfg.SensorSeed = 7
			chip := New(cfg)
			tr, err := chip.Collect(workload.MultiInstance("433", 1),
				RunOpts{VF: arch.VF2, Placement: PlaceScatter})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	},
	{
		name: "boost 458x1 @VF5",
		want: 0x9ba319c905c82de3,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.BoostEnabled = true
			cfg.SensorSeed = 11
			chip := New(cfg)
			tr, err := chip.Collect(workload.MultiInstance("458", 1),
				RunOpts{VF: arch.VF5, WarmTempK: 310, Placement: PlaceScatter})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	},
	{
		name: "per-CU planes restart 433x2 @VF4",
		want: 0xec78d3748f60f057,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.PerCUPlanes = true
			cfg.SensorSeed = 13
			chip := New(cfg)
			tr, err := chip.Collect(workload.MultiInstance("433", 2),
				RunOpts{VF: arch.VF4, Restart: true, MaxTimeS: 2, Placement: PlaceCompact})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	},
	{
		name: "heatcool transient @VF4",
		want: 0x26b11acae400741b,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.SensorSeed = 17
			chip := New(cfg)
			tr, err := chip.HeatCool(arch.VF4, 40, 90)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	},
}

// TestGoldenCollectEquivalence verifies that fixed-seed runs reproduce the
// recorded interval fingerprints exactly (see goldenCollect).
func TestGoldenCollectEquivalence(t *testing.T) {
	for _, tc := range goldenCollect {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tr := tc.run(t)
			if got := tr.Fingerprint(); got != tc.want {
				t.Errorf("fingerprint %#x, want %#x: fixed-seed run diverged from the golden interval sequence", got, tc.want)
			}
		})
	}
}

// TestGoldenSchemaVersion ties the goldens to the trace-cache schema:
// whoever re-records them meets this pin and must bump both.
func TestGoldenSchemaVersion(t *testing.T) {
	if tracecodec.SchemaVersion != goldenSchemaVersion {
		t.Errorf("tracecodec.SchemaVersion = %d, goldens recorded under %d: re-baselining the goldens must bump the cache schema with them",
			tracecodec.SchemaVersion, goldenSchemaVersion)
	}
}
