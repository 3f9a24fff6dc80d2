package fxsim

import (
	"slices"
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

// goldenRun is one fixed-seed scenario and the fingerprint of its trace.
type goldenRun struct {
	name string
	want uint64
	run  func(t *testing.T) *trace.Trace
}

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
var goldenCollect = []goldenRun{
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

// goldenIdle pins the all-idle tick's reuse of its power breakdown
// (Chip.idleOK) against every input that may change it: boost, power
// gating with the NB gated, a P-state, NB point or temperature set in the
// middle of a sensor window, a thread finishing into idle mid-window, and
// an Unbind, a Bind and a Fork mid-interval. The fingerprints were
// recorded before the reuse existed, when every tick swept every core.
// TestTickDrift's reference covers goldenCollect only, so these live in a
// list of their own.
var goldenIdle = []goldenRun{
	{
		name: "boost heatcool @VF5",
		want: 0xe14ef03d3f1d5278,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.BoostEnabled = true
			cfg.SensorSeed = 19
			tr, err := New(cfg).HeatCool(arch.VF5, 5, 12)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	},
	{
		name: "power-gated all-idle @VF3",
		want: 0xf6713e5273d06638,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.PowerGating = true
			cfg.SensorSeed = 23
			chip := New(cfg)
			chip.SetTempK(330)
			tr, err := chip.Cool(arch.VF3, 12)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	},
	{
		name: "idle mutators mid-window",
		want: 0x4460697b0ae35286,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.SensorSeed = 29
			chip := New(cfg)
			chip.SetTempK(328)
			tr := &trace.Trace{Run: "idle-mutators"}
			chip.TickN(7)
			if err := chip.SetPState(1, arch.VF2); err != nil {
				t.Fatal(err)
			}
			chip.TickN(6)
			chip.SetNBPoint(arch.VFPoint{Voltage: 1.0875, Freq: 1.8})
			chip.TickN(4)
			chip.SetTempK(322)
			chip.TickN(183)
			tr.Intervals = append(tr.Intervals, readInterval(chip))
			chip.TickN(45)
			if err := chip.SetAllPStates(arch.VF1); err != nil {
				t.Fatal(err)
			}
			chip.TickN(155)
			tr.Intervals = append(tr.Intervals, readInterval(chip))
			return tr
		},
	},
	{
		name: "finish mid-window into idle, boost and gating",
		want: 0x4ef41e36fc789db5,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.BoostEnabled = true
			cfg.PowerGating = true
			cfg.SensorSeed = 31
			chip := New(cfg)
			a, b := *workload.BenchA(), *workload.BenchA()
			a.Instructions, b.Instructions = 8.5e9, 5e9
			if err := chip.Bind(0, &a, false); err != nil {
				t.Fatal(err)
			}
			if err := chip.Bind(2, &b, false); err != nil {
				t.Fatal(err)
			}
			tr := &trace.Trace{Run: "finish-into-idle"}
			for k := 0; k < 10; k++ {
				chip.TickN(arch.DecisionIntervalMS)
				tr.Intervals = append(tr.Intervals, readInterval(chip))
			}
			return tr
		},
	},
	{
		name: "unbind and fork mid-interval",
		want: 0x60c523ce9cb322e0,
		run: func(t *testing.T) *trace.Trace {
			cfg := DefaultFX8320Config()
			cfg.SensorSeed = 37
			chip := New(cfg)
			long := *workload.BenchA()
			long.Instructions = 1e18
			for _, core := range []int{0, 3} {
				if err := chip.Bind(core, &long, false); err != nil {
					t.Fatal(err)
				}
			}
			tr := &trace.Trace{Run: "unbind-fork"}
			chip.TickN(57)
			chip.Unbind(0)
			chip.TickN(30)
			chip.Unbind(3)
			chip.TickN(21)
			fork := chip.Fork(41)
			fork.TickN(92)
			tr.Intervals = append(tr.Intervals, readInterval(fork))
			fork.TickN(60)
			if err := fork.Bind(5, &long, false); err != nil {
				t.Fatal(err)
			}
			fork.TickN(140)
			tr.Intervals = append(tr.Intervals, readInterval(fork))
			fork.Unbind(5)
			fork.TickN(arch.DecisionIntervalMS)
			tr.Intervals = append(tr.Intervals, readInterval(fork))
			chip.TickN(92)
			tr.Intervals = append(tr.Intervals, readInterval(chip))
			return tr
		},
	},
}

// TestGoldenCollectEquivalence verifies that fixed-seed runs reproduce the
// recorded interval fingerprints exactly (see goldenCollect and
// goldenIdle).
func TestGoldenCollectEquivalence(t *testing.T) {
	for _, tc := range slices.Concat(goldenCollect, goldenIdle) {
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
