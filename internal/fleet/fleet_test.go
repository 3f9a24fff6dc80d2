package fleet

import (
	"math"
	"runtime"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/stats"
)

// goldenFleetFP is the node-0 fingerprint of the reference fleet
// (seed 42, mixed preset, 8 nodes) after 5 decision intervals — the
// cross-refactor witness that node identity derivation and the
// simulated histories stay bit-exact, the same way golden_test.go pins
// single-chip runs. Any worker or shard count must reproduce it.
// Re-recorded with the fxsim goldens (tracecodec.SchemaVersion 2).
const goldenFleetFP = uint64(0x834c45054a11f95b)

const (
	goldenNodes     = 8
	goldenIntervals = 5
)

func goldenConfig() Config {
	return Config{Nodes: goldenNodes, Mix: MixMixed, IdealSensor: true}
}

// runFleet advances a fleet and returns every node's fingerprint.
func runFleet(t *testing.T, cfg Config, intervals int) []uint64 {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.AdvanceN(intervals)
	fps := make([]uint64, e.Nodes())
	for i := range fps {
		fps[i] = e.Fingerprint(i)
	}
	return fps
}

// TestFleetShardInvariance pins the determinism contract: per-node
// fingerprints are bit-identical at workers ∈ {1, 2, NumCPU} and across
// shard sizes, and node 0 of the reference fleet matches the golden
// constant.
func TestFleetShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration fleet run")
	}
	base := goldenConfig()
	base.Workers = 1
	ref := runFleet(t, base, goldenIntervals)
	if ref[0] != goldenFleetFP {
		t.Errorf("golden fleet node-0 fingerprint = %#x, want %#x", ref[0], goldenFleetFP)
	}
	variants := []Config{
		{Nodes: goldenNodes, Mix: MixMixed, IdealSensor: true, Workers: 2},
		{Nodes: goldenNodes, Mix: MixMixed, IdealSensor: true, Workers: runtime.NumCPU()},
		{Nodes: goldenNodes, Mix: MixMixed, IdealSensor: true, Workers: 2, ShardNodes: 1},
		{Nodes: goldenNodes, Mix: MixMixed, IdealSensor: true, Workers: runtime.NumCPU(), ShardNodes: 3},
	}
	for _, cfg := range variants {
		got := runFleet(t, cfg, goldenIntervals)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d shard=%d: node %d fingerprint %#x, want %#x",
					cfg.Workers, cfg.ShardNodes, i, got[i], ref[i])
			}
		}
	}
}

// TestFleetNodeIdentity checks that node identity derivation is a pure
// function of (mix, seed, index): same inputs agree, different nodes
// and different seeds diverge, and jitter never mutates the shared
// workload profiles.
func TestFleetNodeIdentity(t *testing.T) {
	a, err := planNode(MixMixed, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planNode(MixMixed, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.sensorSeed != b.sensorSeed || a.threads != b.threads || a.vf != b.vf ||
		a.warmTempK != b.warmTempK || a.bench.Phases[0].BaseCPI != b.bench.Phases[0].BaseCPI {
		t.Error("planNode not deterministic")
	}
	c, err := planNode(MixMixed, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.sensorSeed == a.sensorSeed {
		t.Error("adjacent nodes share a sensor seed")
	}
	d, err := planNode(MixMixed, 43, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.sensorSeed == a.sensorSeed {
		t.Error("different fleet seeds produce the same node")
	}
	// a and b cloned the same SPEC profile independently; mutating one
	// must not reach the other (shared-profile aliasing guard).
	a.bench.Phases[0].BaseCPI *= 2
	if a.bench.Phases[0].BaseCPI == b.bench.Phases[0].BaseCPI {
		t.Error("node plans alias the shared benchmark profile")
	}
	for _, mix := range Mixes() {
		if _, err := planNode(mix, 1, 0); err != nil {
			t.Errorf("mix %q: %v", mix, err)
		}
	}
}

func TestParseMix(t *testing.T) {
	for _, m := range Mixes() {
		got, err := ParseMix(string(m))
		if err != nil || got != m {
			t.Errorf("ParseMix(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseMix("bogus"); err == nil {
		t.Error("ParseMix accepted an unknown preset")
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("Nodes=0 accepted")
	}
	if _, err := New(Config{Nodes: 1, Workers: -1}); err == nil {
		t.Error("negative Workers accepted")
	}
	if _, err := New(Config{Nodes: 1, Mix: "bogus"}); err == nil {
		t.Error("unknown mix accepted")
	}
}

// TestAdvanceSteadyAllocs pins the engine's steady-state allocation
// budget at workers=1: per Advance, exactly the immutable snapshot
// (struct + row slice) plus the pool closure — every per-node buffer
// (interval scratch, reports, rows, fingerprints) is reused. Amortized
// per simulated tick that is ~0.0002 allocs for even this small fleet.
func TestAdvanceSteadyAllocs(t *testing.T) {
	e, err := New(Config{Nodes: 16, Workers: 1, Mix: MixJittered, IdealSensor: true})
	if err != nil {
		t.Fatal(err)
	}
	e.AdvanceN(2) // warm up scratch and engine memos
	if n := testing.AllocsPerRun(20, e.Advance); n > 3 {
		t.Errorf("Advance allocates %.1f times per interval, want ≤ 3 (snapshot struct, rows, pool closure)", n)
	}
}

// TestFleetSnapshotTotals checks the published aggregates against a
// recomputation from the rows, and the snapshot sequencing/time base.
func TestFleetSnapshotTotals(t *testing.T) {
	e, err := New(Config{Nodes: 12, Workers: 2, Mix: MixMixed, IdealSensor: true})
	if err != nil {
		t.Fatal(err)
	}
	s0 := e.Snapshot()
	if s0 == nil || s0.Seq != 0 || s0.TimeS != 0 {
		t.Fatalf("initial snapshot = %+v", s0)
	}
	e.AdvanceN(3)
	s := e.Snapshot()
	if s.Seq != 3 {
		t.Errorf("Seq = %d, want 3", s.Seq)
	}
	if want := 3 * float64(arch.DecisionIntervalMS) / 1000; s.TimeS != want {
		t.Errorf("TimeS = %v, want %v", s.TimeS, want)
	}
	if len(s.Nodes) != 12 || s.NVF != len(arch.FX8320VFTable) {
		t.Fatalf("snapshot shape: %d nodes, NVF=%d", len(s.Nodes), s.NVF)
	}
	var meas, true_ float64
	busy := 0
	for i, row := range s.Nodes {
		if row.Node != i {
			t.Errorf("row %d has Node=%d", i, row.Node)
		}
		if row.Intervals != 3 {
			t.Errorf("node %d Intervals = %d, want 3", i, row.Intervals)
		}
		if row.TruePowerW <= 0 || row.TempK <= 0 {
			t.Errorf("node %d implausible: true=%v temp=%v", i, row.TruePowerW, row.TempK)
		}
		if row.Analyzed {
			t.Errorf("node %d Analyzed without models", i)
		}
		meas += row.MeasPowerW
		true_ += row.TruePowerW
		busy += row.BusyCores
	}
	if meas != s.TotalMeasW || true_ != s.TotalTrueW || busy != s.BusyCores {
		t.Errorf("aggregates diverge from rows: meas %v/%v true %v/%v busy %d/%d",
			meas, s.TotalMeasW, true_, s.TotalTrueW, busy, s.BusyCores)
	}
	if s.AnalyzedNodes != 0 {
		t.Errorf("AnalyzedNodes = %d without models", s.AnalyzedNodes)
	}
	// Snapshots are immutable: the earlier one must be untouched.
	if s0.Seq != 0 || s0.Nodes[0].Intervals != 0 {
		t.Error("published snapshot mutated by later Advance")
	}
}

// TestFleetAnalyzed runs a small fleet with slim-trained models and
// checks the per-VF prediction surface the capping controller will
// consume: every node analyzed, per-node and fleet-total predicted
// power positive and increasing in VF, totals equal to the node-order
// sum of rows.
func TestFleetAnalyzed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	models, err := SlimModels()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Nodes: 6, Workers: 2, Mix: MixMixed, IdealSensor: true, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	e.AdvanceN(2)
	s := e.Snapshot()
	if s.AnalyzedNodes != 6 {
		t.Fatalf("AnalyzedNodes = %d, want 6", s.AnalyzedNodes)
	}
	var wantTotals [MaxVFStates]float64
	for i, row := range s.Nodes {
		if !row.Analyzed || row.AnalyzeErrs != 0 {
			t.Fatalf("node %d not analyzed (errs=%d)", i, row.AnalyzeErrs)
		}
		for v := 0; v < s.NVF; v++ {
			if row.PredChipW[v] <= 0 {
				t.Errorf("node %d PredChipW[%d] = %v", i, v, row.PredChipW[v])
			}
			if v > 0 && row.PredChipW[v] <= row.PredChipW[v-1] {
				t.Errorf("node %d predicted power not increasing at VF%d", i, v+1)
			}
			wantTotals[v] += float64(row.PredChipW[v])
		}
	}
	for v := 0; v < s.NVF; v++ {
		if float64(s.TotalPredW[v]) != wantTotals[v] {
			t.Errorf("TotalPredW[%d] = %v, node-order sum = %v", v, s.TotalPredW[v], wantTotals[v])
		}
	}
	if s.TotalPredAt(arch.VF1) >= s.TotalPredAt(arch.VF5) {
		t.Error("fleet predicted power not increasing VF1→VF5")
	}
}

// TestFleetGatesUnusablePredictions injects analysis reports whose
// projected chip power is NaN or negative — an idle offset forced to NaN
// or far below zero, which AnalyzeInto itself accepts — and checks that
// each node's row is excluded: counted as an analysis error, not
// Analyzed, with no PredChipW and no share of TotalPredW.
func TestFleetGatesUnusablePredictions(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	models, err := SlimModels()
	if err != nil {
		t.Fatal(err)
	}
	for name, w0 := range map[string]float64{
		"NaN idle offset":      math.NaN(),
		"negative idle offset": -1e6,
	} {
		m := *models
		idle := *m.Idle
		idle.W0 = append(stats.Poly(nil), m.Idle.W0...)
		idle.W0[0] = w0
		m.Idle = &idle
		e, err := New(Config{Nodes: 4, Workers: 2, Mix: MixMixed, IdealSensor: true, Models: &m})
		if err != nil {
			t.Fatal(err)
		}
		e.AdvanceN(2)
		// The analysis itself succeeds: only the gate can exclude the row.
		n := &e.nodes[0]
		if err := m.AnalyzeInto(n.iv, &n.rep); err != nil {
			t.Fatalf("%s: AnalyzeInto refused the interval (%v); the gate is not exercised", name, err)
		}
		if e.usable(&n.rep) {
			t.Fatalf("%s: projected chip power %v passes the gate", name, n.rep.PerVF[0].ChipW)
		}
		s := e.Snapshot()
		if s.AnalyzedNodes != 0 {
			t.Errorf("%s: AnalyzedNodes = %d, want 0", name, s.AnalyzedNodes)
		}
		for i, row := range s.Nodes {
			if row.Analyzed || row.AnalyzeErrs != 2 {
				t.Errorf("%s: node %d Analyzed=%v with %d analyze errors, want excluded with 2", name, i, row.Analyzed, row.AnalyzeErrs)
			}
			for v := 0; v < s.NVF; v++ {
				if row.PredChipW[v] != 0 {
					t.Errorf("%s: node %d PredChipW[%d] = %v reached the snapshot", name, i, v, row.PredChipW[v])
				}
			}
		}
		for v := 0; v < s.NVF; v++ {
			if s.TotalPredW[v] != 0 {
				t.Errorf("%s: TotalPredW[%d] = %v, want 0", name, v, s.TotalPredW[v])
			}
		}
	}
}
